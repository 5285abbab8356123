package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/directory"
	"repro/internal/ledger"
	"repro/internal/token"
)

// The cluster tests exercise the distributed runtime for real: peers
// are separate livenet substrates joined over localhost UDP sockets,
// with routes and tokens fetched from the directory service over
// HTTP. Every one runs through RunCluster, the run the launcher makes.
// The four-node test runs each peer in its own OS process by starting
// this test binary as `<binary> peer <args>` (TestMain hands that to
// PeerMain), which is the acceptance shape: a 4-node cluster
// completing a seeded workload with zero lost transactions and exact
// ledger parity with the single-process run of the same seed.

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "peer" {
		if err := PeerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "peer:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCluster makes one cluster run with its progress on the test log
// and fails the test, with the merged report, unless Verdict passed.
func runCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	cfg.Logf = t.Logf
	cl, pass, err := RunCluster(cfg)
	if err != nil {
		if cl != nil {
			logDrops(t, cl)
			t.Fatalf("%v\n%s", err, FormatCluster(cl))
		}
		t.Fatal(err)
	}
	t.Log(pass)
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

// runTwoPeers runs a plain 2-peer cluster with both peers in this
// process (separate livenet substrates, real UDP between them).
func runTwoPeers(t *testing.T) *Cluster {
	t.Helper()
	return runCluster(t, ClusterConfig{Peers: 2, Settle: 15 * time.Second})
}

// TestClusterTwoPeerInProcess is fast coverage of the whole
// join/route/quiesce/report protocol without process management.
// Beyond the run's verdict it checks that at least one trace
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
// passed on a real run's snapshots inside runCluster, rejects the
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
// processes (this test binary, started as a peer) over localhost UDP,
// seeded conformance workload, zero lost transactions, and per-account
// ledger totals identical to the single-process livenet run.
func TestClusterFourProcessParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster run in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	runCluster(t, ClusterConfig{Peers: 4, Settle: 20 * time.Second, Start: ExecPeers(exe)})
}

// TestClusterGateway runs a 3-peer gateway cluster in this process: a
// hash-checked transfer of 1 MiB each way crosses the mesh through the
// SOCKS relays, and the verdict holds the relays' byte conservation
// and the gateway account's bill. It logs, without judging them, each
// router's queue-full drops (from the peers' flight tails) and the
// relays' retransmissions: a run that passes can still drop frames at
// a tunnel port, which the relays then resend.
func TestClusterGateway(t *testing.T) {
	logDrops(t, runCluster(t, ClusterConfig{Peers: 3, GatewayBytes: 1 << 20}))
}

// logDrops logs each peer's queue-full drops by router port (from its
// flight tail) and its relays' retransmissions.
func logDrops(t *testing.T, cl *Cluster) {
	t.Helper()
	for _, name := range peerNames(cl.Reports) {
		r := cl.Reports[name]
		drops := make(map[string]int)
		for _, e := range r.Flight {
			if e.Kind == ledger.KindQueueOverflow {
				drops[fmt.Sprintf("%s port %d", e.Node, e.Port)]++
			}
		}
		t.Logf("%s: %d router drops; queue-full by router port %v (flight tail of %d of %d events)",
			name, r.RouterDrops, drops, len(r.Flight), r.FlightTotal)
		for _, g := range r.Gateways {
			v := g.Stats.VMTP
			t.Logf("%s: %s relay retransmissions=%d selective-resends=%d dup-requests=%d",
				name, g.Role, v.Retransmissions, v.SelectiveResends, v.DupRequests)
		}
	}
}

// TestClusterFailover runs the 3-peer failover smoke in this process:
// one cross-partition tunnel dies between the flow waves, and the
// verdict requires every flow delivered and echoed exactly once, with
// in-header failovers recorded.
func TestClusterFailover(t *testing.T) {
	runCluster(t, ClusterConfig{Peers: 3, Failover: true})
}

// TestClusterOfOne runs `sirpentd run`'s cluster of one in this
// process, plain and as a 1 MiB gateway run: with no tunnel to cross,
// the verdicts of an N-peer run still hold, the plain one including
// parity with the single-process run. A failover run needs a tunnel to
// take down, so one peer cannot make one. The gateway run overlaps the
// relay burst with the echo flows, and under -race about 1 run in 10
// loses a flow to a queue-full drop at R1's host ports: the in-process
// form of the drops ROADMAP item 18 is to attribute.
func TestClusterOfOne(t *testing.T) {
	t.Run("plain", func(t *testing.T) { runCluster(t, ClusterConfig{Peers: 1}) })
	t.Run("gateway", func(t *testing.T) { runCluster(t, ClusterConfig{Peers: 1, GatewayBytes: 1 << 20}) })
	t.Run("failover refused", func(t *testing.T) {
		if _, _, err := RunCluster(ClusterConfig{Peers: 1, Failover: true}); err == nil {
			t.Fatal("a one-peer failover run started")
		}
	})
}

// TestPeerDebugMux runs one gateway peer with its debug mux on an
// ephemeral port. The mux's URL comes from the peer's registration,
// every route answers while the peer holds for the shutdown latch, the
// ledger shows the accounts its flows were billed to, and once the
// latch is raised the peer completes and the mux is gone.
func TestPeerDebugMux(t *testing.T) {
	seed, err := clusterSeed(1, false)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := StartDir(DirConfig{Addr: "127.0.0.1:0", Seed: seed, Peers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := Peer(PeerConfig{Total: 1, Seed: seed, DirURL: ds.URL, Gateway: true, Debug: "127.0.0.1:0"})
		done <- result{rep, err}
	}()
	client := directory.NewClient(ds.URL)
	roster, err := client.WaitPeers(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	url := roster[0].Debug
	if url == "" {
		t.Fatalf("the peer registered no debug URL: %+v", roster[0])
	}
	get := func(path string) (string, error) {
		resp, err := http.Get(url + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return string(body), err
	}
	for _, r := range []struct{ path, want string }{
		{"/healthz", "ok"},
		{"/debug/vars", `"memstats"`},
		{"/debug/ledger", `"accounts"`},
		{"/debug/flightrec", `"capacity"`},
		{"/debug/pprof/", "profile"},
	} {
		body, err := get(r.path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(body, r.want) {
			t.Errorf("GET %s: no %q in:\n%s", r.path, r.want, body)
		}
	}

	// The flows run before a gateway peer holds for the latch, so the
	// owned routers' token caches bill their accounts by then.
	for deadline := time.Now().Add(10 * time.Second); ; {
		body, err := get("/debug/ledger")
		if err != nil {
			t.Fatal(err)
		}
		var snap ledger.Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatal(err)
		}
		if len(snap.Accounts) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/ledger billed no account:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := client.Shutdown(); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !res.rep.Complete {
		t.Fatalf("peer returned incomplete: %d delivered, %d replied",
			len(res.rep.Flows.Delivered), len(res.rep.Flows.Replied))
	}
	if _, err := get("/healthz"); err == nil {
		t.Fatal("the debug mux still answers after Peer returned")
	}
}

// TestPeerArgsRoundTrip checks that the peer command line PeerArgs
// builds parses back into the config it was built from.
func TestPeerArgsRoundTrip(t *testing.T) {
	for _, cfg := range []PeerConfig{
		{Index: 2, Total: 4, Seed: 7, DirURL: "http://127.0.0.1:1", UDPAddr: "127.0.0.1:2",
			SettleTimeout: 3 * time.Second, Failover: true, BlipLink: 5, Gateway: true, GatewayListen: "127.0.0.1:3",
			Debug: "127.0.0.1:4"},
		{Index: 0, Total: 2, Seed: 1, DirURL: "http://127.0.0.1:1", UDPAddr: "127.0.0.1:0",
			SettleTimeout: 30 * time.Second, BlipLink: -1, GatewayListen: "127.0.0.1:0"},
	} {
		got, err := parsePeerArgs(PeerArgs(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cfg) {
			t.Errorf("PeerArgs %q parsed to %+v, want %+v", PeerArgs(cfg), got, cfg)
		}
	}
}

// TestClusterVerdictRejects builds a plain run's final snapshots by
// hand from the single-process run of a real seed: each peer holds the
// requests and replies its own hosts saw, and peer0 the whole ledger.
// The snapshots cross JSON as the directory serves them. Verdict must
// pass them as built and report each one-fact mutation.
func TestClusterVerdictRejects(t *testing.T) {
	const total = 2
	seed, err := clusterSeed(total, false)
	if err != nil {
		t.Fatal(err)
	}
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
				off := maps.Clone(bill)
				u := off[acct]
				u.Packets++
				off[acct] = u
				cl.Bill.Record("directory", off)
			},
			fmt.Sprintf("account %d: directory bill", acct)},
		{"return route differs from the single-process run",
			func(cl *Cluster) { cl.Reports[dst].Flows.Delivered[f.ID][0].Fp += "port=0; " },
			fmt.Sprintf("flow %d: return routes diverge", f.ID)},
	}
	plain := ClusterConfig{Peers: total, Seed: seed}
	if _, err := Verdict(build(), plain); err != nil {
		t.Fatalf("verdict on the unmodified snapshots: %v", err)
	}
	for _, c := range cases {
		cl := build()
		c.mutate(cl)
		_, err := Verdict(cl, plain)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: verdict missed it, want a %q problem, got: %v", c.name, c.want, err)
		}
	}
}
