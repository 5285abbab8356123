package daemon

import (
	"bytes"
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
// directory and applies the full verdict: per-flow delivery/echo
// exactness, internal ledger reconciliation, per-account parity
// against the single-process livenet run of the same seed, the
// directory's bill, and the trace accounting. It returns the decoded
// cluster for further checks.
func verifyCluster(t *testing.T, ds *DirServer, seed int64, total int) *Cluster {
	t.Helper()
	cr, err := directory.NewClient(ds.URL).WaitCluster(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DecodeCluster(cr)
	if err != nil {
		t.Fatal(err)
	}
	if problems := VerifyCluster(ds.Scenario, total, cl.Reports); len(problems) > 0 {
		t.Fatalf("cluster verdict (%d problems):\n%s\n%s",
			len(problems), joinLines(problems), FormatCluster(cl))
	}
	diffs, err := CompareWithSingleProcess(seed, ClusterLedger(cl.Reports), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) > 0 {
		t.Fatalf("cluster ledger diverges from single-process run:\n%s\n%s",
			joinLines(diffs), FormatCluster(cl))
	}

	// The directory's own billing database must agree too: every peer
	// posted its per-router sweeps there (§3's accounting story).
	merged := ClusterLedger(cl.Reports).Totals()
	for account, e := range merged {
		if u := cl.Bill[account]; u.Packets != e.Packets || u.Bytes != e.Bytes {
			t.Fatalf("directory bill for account %d = %+v, cluster ledger %+v", account, u, e)
		}
	}

	if problems := VerifyClusterTelemetry(cl); len(problems) > 0 {
		t.Fatalf("telemetry verdict (%d problems):\n%s\n%s",
			len(problems), joinLines(problems), FormatCluster(cl))
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
	return verifyCluster(t, ds, seed, total)
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
	verifyCluster(t, ds, seed, total)
}
