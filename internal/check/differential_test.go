package check

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// liveDeadline bounds how long one livenet scenario may take to quiesce.
const liveDeadline = 10 * time.Second

// eachSeed runs fn as one parallel subtest per seeded scenario, 1..60,
// each under both livenet router partitions (onBothPartitions).
func eachSeed(t *testing.T, fn func(t *testing.T, sc *Scenario)) {
	for seed := int64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			onBothPartitions(t, func(t *testing.T, split bool) {
				t.Parallel()
				sc := Generate(seed)
				sc.SplitRouters = split
				fn(t, sc)
			})
		})
	}
}

// onBothPartitions runs fn as a "fused" subtest — livenet's default, one
// forwarding worker per network, so router-to-router links hand batches
// over in place — and a "split" one, a worker per router, so every link
// is a ring pair.
func onBothPartitions(t *testing.T, fn func(t *testing.T, split bool)) {
	t.Run("fused", func(t *testing.T) { fn(t, false) })
	t.Run("split", func(t *testing.T) { fn(t, true) })
}

// TestDifferentialNetsimVsLivenet is the harness's centerpiece: for each
// of 60 seeded scenarios, the identical topology, routes, and workload
// run through the event-driven substrate and the goroutine substrate,
// and the observations must agree — delivery sets, delivering hosts,
// trailer contents, payload integrity, and reply arrivals. Each
// substrate must also independently satisfy reachability: every request
// reaches its destination exactly once, and every reply — routed purely
// by the accumulated trailer — reaches the source exactly once.
func TestDifferentialNetsimVsLivenet(t *testing.T) {
	eachSeed(t, func(t *testing.T, sc *Scenario) { differential(t, sc, 0) })
}

// TestBatchScalarDecisionParity is the differential suite on DAG
// routes: every flow is routed with up to two ranked alternates per hop
// and nothing fails, so every hop the directory found an alternate for
// is a DAG segment taking its primary branch. Livenet decides those
// hops in batches (dataplane.DecideBatch on ring workers), netsim one
// arrival at a time (dataplane.Decide), and the two must agree exactly
// as on linear routes — the cost of carrying alternates is header bytes,
// never a different path. The name is older than this body: it once
// compared livenet's own one-frame and batched dataplanes. It is kept
// so the seeded subtests stay comparable across history; "Scalar" now
// means netsim's one decision per arrival.
func TestBatchScalarDecisionParity(t *testing.T) {
	eachSeed(t, func(t *testing.T, sc *Scenario) { differential(t, sc, 2) })
}

// differential runs one scenario, routed with the given number of
// failover alternates per hop, on both substrates and reports every
// disagreement, with both substrates' hop traces of the diverging flows
// as evidence.
func differential(t *testing.T, sc *Scenario, alternates int) {
	net := BuildNetsim(sc)
	routes, err := FlowRoutesAlt(net, sc, alternates)
	if err != nil {
		t.Fatalf("routing: %v", err)
	}
	simRec := trace.NewRecorder(TraceID)
	net.SetTracer(simRec)
	simRes := RunNetsim(net, sc, routes)
	liveRes, liveCtrs, liveRec := RunLivenetTraced(sc, routes, liveDeadline)

	for _, p := range Diff(simRes, liveRes, sc, "netsim", "livenet") {
		t.Errorf("diff: %s", p)
	}
	// A divergence report is only actionable with the hop-level story
	// behind it: attach both substrates' traces for every flow that
	// disagreed.
	if ids := DivergingFlows(simRes, liveRes, sc); len(ids) > 0 {
		t.Logf("trace evidence for diverging flows:\n%s%s",
			TraceEvidence("netsim", simRec, ids),
			TraceEvidence("livenet", liveRec, ids))
	}
	// The substrates share one counter surface (stats.Counters), so a
	// fault-free run must produce identical totals bucket by bucket —
	// same forwards, same local deliveries, zero drops everywhere.
	for _, p := range stats.DiffCounters("netsim", "livenet", NetsimRouterCounters(net, sc), liveCtrs) {
		t.Errorf("counters: %s", p)
	}
	for _, p := range CheckReachability(simRes, sc) {
		t.Errorf("netsim: %s", p)
	}
	for _, p := range CheckReachability(liveRes, sc) {
		t.Errorf("livenet: %s", p)
	}

	// A fault-free run must also be loss-free at every layer.
	if _, _, _, se := simRes.Counts(); se != 0 {
		t.Errorf("netsim: %d send errors", se)
	}
	if _, _, _, se := liveRes.Counts(); se != 0 {
		t.Errorf("livenet: %d send errors", se)
	}
	for i := 0; i < sc.NRouters; i++ {
		r := net.Router(RouterName(i))
		if n := r.Stats.TotalDrops(); n != 0 {
			t.Errorf("netsim %s: %d drops in a fault-free run: %v", RouterName(i), n, r.Stats.Drops)
		}
	}
	for i := range sc.HostRouter {
		h := net.Host(HostName(i))
		s := h.Stats
		if s.Misdeliver+s.DropAborted+s.DropNoIface+s.DropQueue+s.DropTx != 0 {
			t.Errorf("netsim %s: host drops in a fault-free run: %+v", HostName(i), s)
		}
	}
}

// TestGenerateDeterministic pins that a seed fully determines the
// scenario, which both the diff and any future bisection rely on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a, b := Generate(seed), Generate(seed)
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
		if len(a.Flows) < 5 {
			t.Fatalf("seed %d: only %d flows", seed, len(a.Flows))
		}
		for _, f := range a.Flows {
			if f.Src == f.Dst {
				t.Fatalf("seed %d: flow %d is a self-loop", seed, f.ID)
			}
		}
	}
}

// TestScenarioPortsDisjoint verifies the generator never double-books a
// router port — the property that lets both builders use explicit port
// numbers and get identical topologies.
func TestScenarioPortsDisjoint(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		sc := Generate(seed)
		used := make(map[[2]int]bool)
		claim := func(router int, port uint8) {
			k := [2]int{router, int(port)}
			if used[k] {
				t.Fatalf("seed %d: router %d port %d allocated twice", seed, router, port)
			}
			used[k] = true
		}
		for _, l := range sc.Links {
			claim(l.A, l.APort)
			claim(l.B, l.BPort)
		}
		for i, ri := range sc.HostRouter {
			claim(ri, sc.HostPort[i])
		}
	}
}
