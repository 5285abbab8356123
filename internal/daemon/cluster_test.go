package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/directory"
	"repro/internal/token"
)

// The cluster tests exercise the distributed runtime for real: peers
// are separate livenet substrates joined over localhost UDP sockets,
// with routes and tokens fetched from the directory service over
// HTTP. The four-node test runs each peer in its own OS process by
// re-executing the test binary (TestMain dispatches on an env var),
// which is the acceptance shape: a launcher-started 4-node cluster
// completing a seeded workload with zero lost transactions and exact
// ledger parity with the single-process run of the same seed.

const (
	roleEnv  = "SIRPENTD_TEST_ROLE"
	indexEnv = "SIRPENTD_TEST_INDEX"
	totalEnv = "SIRPENTD_TEST_TOTAL"
	seedEnv  = "SIRPENTD_TEST_SEED"
	dirEnv   = "SIRPENTD_TEST_DIR"
)

func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "peer" {
		childPeer()
		return
	}
	os.Exit(m.Run())
}

// childPeer is the re-exec entry: the test binary, relaunched as a
// cluster peer.
func childPeer() {
	idx, _ := strconv.Atoi(os.Getenv(indexEnv))
	total, _ := strconv.Atoi(os.Getenv(totalEnv))
	seed, _ := strconv.ParseInt(os.Getenv(seedEnv), 10, 64)
	_, err := Peer(PeerConfig{
		Index:         idx,
		Total:         total,
		Seed:          seed,
		DirURL:        os.Getenv(dirEnv),
		SettleTimeout: 20 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "peer:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// clusterSeed returns the first seed whose scenario has at least
// minRouters routers and at least one link crossing a total-way
// partition — so the workload genuinely exercises the UDP tunnels.
func clusterSeed(t *testing.T, minRouters, total int) int64 {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		sc := check.Generate(seed)
		if sc.NRouters >= minRouters && len(check.CrossLinks(sc, total)) > 0 {
			return seed
		}
	}
	t.Fatalf("no seed under 1000 yields >=%d routers with cross-links at %d peers", minRouters, total)
	return 0
}

// verifyCluster reads every peer's final snapshot back out of the
// directory and applies the plain run's Verdict, the one the launcher
// applies. It returns the decoded cluster for further checks.
func verifyCluster(t *testing.T, ds *DirServer, seed int64) *Cluster {
	t.Helper()
	cr, err := directory.NewClient(ds.URL).WaitCluster(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DecodeCluster(cr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verdict(cl, seed, RunMode{}); err != nil {
		t.Fatalf("%v\n%s", err, FormatCluster(cl))
	}
	return cl
}

func joinLines(lines []string) string {
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString("  ")
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// runTwoPeers runs a 2-peer cluster with both peers in this process
// (separate livenet substrates, real UDP between them) with trace-all
// sampling, and returns the cluster verifyCluster decoded and judged.
func runTwoPeers(t *testing.T) *Cluster {
	t.Helper()
	const total = 2
	seed := clusterSeed(t, 2, total)
	ds, err := StartDir(DirConfig{Addr: "127.0.0.1:0", Seed: seed, Peers: total})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	var wg sync.WaitGroup
	errs := make([]error, total)
	for i := 0; i < total; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Peer(PeerConfig{
				Index: i, Total: total, Seed: seed, DirURL: ds.URL,
				SettleTimeout: 15 * time.Second, Logf: t.Logf,
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
	}
	return verifyCluster(t, ds, seed)
}

// TestClusterTwoPeerInProcess is fast coverage of the whole
// join/route/quiesce/report protocol without process management.
// Beyond verifyCluster's verdict it checks that at least one trace
// genuinely crossed the substrate boundary (wire spans exist, since
// clusterSeed guarantees cross-links) and that trace-all sampling
// recorded origin spans.
func TestClusterTwoPeerInProcess(t *testing.T) {
	cl := runTwoPeers(t)

	var wire, origin int64
	for _, st := range cl.Stages {
		if strings.HasPrefix(st.Stage, "wire:") {
			wire += st.Count
		}
		if st.Stage == "origin" {
			origin += st.Count
		}
	}
	if wire == 0 {
		t.Fatalf("no wire spans recorded despite cross-links:\n%s", FormatCluster(cl))
	}
	if origin == 0 {
		t.Fatalf("no origin spans recorded with trace-all sampling:\n%s", FormatCluster(cl))
	}
}

// TestClusterTelemetryParity checks that the telemetry verdict, which
// passed on a real run's snapshots inside verifyCluster, rejects the
// same evidence once one counter is off: a tunnel that under-reports
// its traced decapsulations, a peer that leaks a trace record, and a
// peer whose latest snapshot is not final.
func TestClusterTelemetryParity(t *testing.T) {
	cl := runTwoPeers(t)

	var tun *TunnelReport
	for _, r := range cl.Reports {
		for i := range r.Tunnels {
			if r.Tunnels[i].Stats.TracedRecv > 0 {
				tun = &r.Tunnels[i]
			}
		}
	}
	if tun == nil {
		t.Fatalf("no tunnel decapsulated a traced frame despite cross-links:\n%s", FormatCluster(cl))
	}
	var peer *Report
	for _, name := range peerNames(cl.Reports) {
		peer = cl.Reports[name]
		break
	}

	mutations := []struct {
		name        string
		apply, undo func()
		want        string
	}{
		{"tunnel under-reports TracedRecv",
			func() { tun.Stats.TracedRecv-- }, func() { tun.Stats.TracedRecv++ },
			"wire spans"},
		{"peer leaks a trace record",
			func() { peer.TraceFinished-- }, func() { peer.TraceFinished++ },
			"leaked trace records"},
		{"peer snapshot not final",
			func() { peer.Final = false }, func() { peer.Final = true },
			"telemetry incomplete"},
	}
	for _, m := range mutations {
		m.apply()
		problems := VerifyClusterTelemetry(cl)
		m.undo()
		if !strings.Contains(joinLines(problems), m.want) {
			t.Errorf("%s: verdict missed it, want a %q problem, got:\n%s", m.name, m.want, joinLines(problems))
		}
	}
	if problems := VerifyClusterTelemetry(cl); len(problems) > 0 {
		t.Fatalf("verdict on restored evidence (%d problems):\n%s", len(problems), joinLines(problems))
	}
}

// TestClusterFourProcessParity is the acceptance run: four peer
// processes (re-execed test binary) over localhost UDP, seeded
// conformance workload, zero lost transactions, and per-account
// ledger totals identical to the single-process livenet run.
func TestClusterFourProcessParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster run in -short mode")
	}
	const total = 4
	seed := clusterSeed(t, 4, total)
	ds, err := StartDir(DirConfig{Addr: "127.0.0.1:0", Seed: seed, Peers: total})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]*exec.Cmd, total)
	outs := make([]bytes.Buffer, total)
	for i := 0; i < total; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			roleEnv+"=peer",
			fmt.Sprintf("%s=%d", indexEnv, i),
			fmt.Sprintf("%s=%d", totalEnv, total),
			fmt.Sprintf("%s=%d", seedEnv, seed),
			dirEnv+"="+ds.URL,
		)
		cmd.Stdout = &outs[i]
		cmd.Stderr = &outs[i]
		if err := cmd.Start(); err != nil {
			t.Fatalf("start peer %d: %v", i, err)
		}
		cmds[i] = cmd
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("peer %d exited: %v\n%s", i, err, outs[i].String())
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	verifyCluster(t, ds, seed)
}

// TestClusterVerdictRejects builds a plain run's final snapshots by
// hand from the single-process run of a real seed: each peer holds the
// requests and replies its own hosts saw, and peer0 the whole ledger.
// The snapshots cross JSON as the directory serves them. Verdict must
// pass them as built and report each one-fact mutation.
func TestClusterVerdictRejects(t *testing.T) {
	const total = 2
	seed := clusterSeed(t, 2, total)
	sc := check.Generate(seed)
	routes, err := check.FlowRoutesAccounted(check.BuildNetsimTokened(sc), sc)
	if err != nil {
		t.Fatal(err)
	}
	res, counters, led, _ := check.RunLivenetLedgered(sc, routes, 10*time.Second)
	ref := res.Snapshot()
	bill := make(map[uint32]token.Usage)
	for acct, e := range led.Totals() {
		bill[acct] = token.Usage{Packets: e.Packets, Bytes: e.Bytes, Denials: e.Denials}
	}
	build := func() *Cluster {
		reports := make([]*Report, total)
		for i := range reports {
			reports[i] = &Report{Peer: check.PeerName(i), Seq: 1, Final: true, Complete: true,
				Flows: check.ResultSnapshot{
					Delivered: make(map[uint64][]check.DeliveryRec),
					Replied:   make(map[uint64][]string),
				}}
		}
		for _, f := range sc.Flows {
			reports[check.HostOwner(sc, f.Dst, total)].Flows.Delivered[f.ID] = ref.Delivered[f.ID]
			reports[check.HostOwner(sc, f.Src, total)].Flows.Replied[f.ID] = ref.Replied[f.ID]
		}
		reports[0].RouterUsage = map[string]map[uint32]token.Usage{"all": bill}
		reports[0].TokenAuthorized = counters.TokenAuthorized
		cr := directory.ClusterReport{Expect: total, Bill: bill}
		for _, rep := range reports {
			raw, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			cr.Nodes = append(cr.Nodes, raw)
		}
		cl, err := DecodeCluster(cr)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}

	f := sc.Flows[0]
	dst := check.PeerName(check.HostOwner(sc, f.Dst, total))
	other := check.PeerName((check.HostOwner(sc, f.Dst, total) + 1) % total)
	src := check.PeerName(check.HostOwner(sc, f.Src, total))
	acct := check.AccountFor(f)
	cases := []struct {
		name   string
		mutate func(cl *Cluster)
		want   string
	}{
		{"flow delivered nowhere",
			func(cl *Cluster) { delete(cl.Reports[dst].Flows.Delivered, f.ID) },
			fmt.Sprintf("flow %d: never delivered", f.ID)},
		{"flow delivered at two peers",
			func(cl *Cluster) {
				cl.Reports[other].Flows.Delivered[f.ID] = cl.Reports[dst].Flows.Delivered[f.ID]
			},
			fmt.Sprintf("flow %d: delivered 2 times", f.ID)},
		{"reply at the wrong host",
			func(cl *Cluster) { cl.Reports[src].Flows.Replied[f.ID] = []string{check.HostName(f.Dst)} },
			fmt.Sprintf("flow %d: reply landed at %s", f.ID, check.HostName(f.Dst))},
		{"garbled delivery",
			func(cl *Cluster) { cl.Reports[dst].Flows.Garbled++ },
			"garbled=1"},
		{"peer not final",
			func(cl *Cluster) { cl.Reports[dst].Final = false },
			"never sent its final snapshot"},
		{"bill one packet off",
			func(cl *Cluster) {
				u := cl.Bill[acct]
				u.Packets++
				cl.Bill[acct] = u
			},
			fmt.Sprintf("account %d: directory bill", acct)},
		{"return route differs from the single-process run",
			func(cl *Cluster) { cl.Reports[dst].Flows.Delivered[f.ID][0].Fp += "port=0; " },
			fmt.Sprintf("flow %d: return routes diverge", f.ID)},
	}
	if _, err := Verdict(build(), seed, RunMode{}); err != nil {
		t.Fatalf("verdict on the unmodified snapshots: %v", err)
	}
	for _, c := range cases {
		cl := build()
		c.mutate(cl)
		_, err := Verdict(cl, seed, RunMode{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: verdict missed it, want a %q problem, got: %v", c.name, c.want, err)
		}
	}
}
