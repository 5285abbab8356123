package check

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/sim"
	"repro/internal/viper"
)

// The in-header failover acceptance suite: DAG-routed packets must
// keep delivering through seeded link-down and flap storms in BOTH
// substrates, with no directory re-query (routes are computed once,
// before any fault fires), every diversion flight-recorded, and the
// conservation invariants intact.

// failoverScenario is a hand-built diamond with a disjoint detour at
// every transit hop:
//
//	h0 -- R0 --(1:1)-- R1 --(2:1)-- R3 -- h1
//	       \                       /
//	        +--(2:1)-- R2 --(2:2)-+
//
// Flows all run h0 -> h1, so the directory's DAG routes give R0 an
// alternate trunk and the mid router an alternate back over the other
// trunk.
func failoverScenario(nFlows int) *Scenario {
	sc := &Scenario{
		Seed:       4242,
		NRouters:   4,
		HostRouter: []int{0, 3},
		HostPort:   []uint8{3, 3},
		Links: []Link{
			{A: 0, B: 1, APort: 1, BPort: 1},
			{A: 1, B: 3, APort: 2, BPort: 1},
			{A: 0, B: 2, APort: 2, BPort: 1},
			{A: 2, B: 3, APort: 2, BPort: 2},
		},
	}
	for i := 0; i < nFlows; i++ {
		sc.Flows = append(sc.Flows, Flow{
			Src: 0, Dst: 1,
			Size: dataMinLen + 32*(i%4),
			Prio: viper.Priority(i % 6),
			ID:   uint64(i + 1),
		})
	}
	return sc
}

// primaryTrunk finds which Scenario.Links entry the ingress router's
// DAG hop uses as its primary exit — the link the tests then sever.
func primaryTrunk(t *testing.T, sc *Scenario, route []viper.Segment) int {
	t.Helper()
	seg := &route[1] // executes at R0, the ingress router
	if !viper.IsDAGSegment(seg) {
		t.Fatalf("ingress hop is not a DAG segment: %+v", seg)
	}
	for i, l := range sc.Links {
		if (l.A == 0 && l.APort == seg.Port) || (l.B == 0 && l.BPort == seg.Port) {
			return i
		}
	}
	t.Fatalf("no scenario link matches R0 port %d", seg.Port)
	return -1
}

func countKind(fr *ledger.FlightRecorder, k ledger.Kind) int {
	n := 0
	for _, ev := range fr.Events() {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// TestFailoverDifferentialStaticDown is the byte-identical half of the
// acceptance criteria: the primary trunk is dead before any packet is
// injected, both substrates run the identical DAG routes, and the
// observable outcome — delivery set, trailer fingerprints (the path
// actually taken), reply reachability — must match record for record.
// All flows deliver via the alternate with zero directory re-queries,
// and every diversion is flight-recorded on both sides.
func TestFailoverDifferentialStaticDown(t *testing.T) {
	sc := failoverScenario(6)

	net := BuildNetsim(sc)
	routes, err := FlowRoutesAlt(net, sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	dead := primaryTrunk(t, sc, routes[1])
	deadLink := sc.Links[dead]

	// Netsim: fail the trunk, then inject.
	simFR := ledger.NewFlightRecorder(0)
	net.SetFlightRecorder(simFR)
	net.FailLink(RouterName(deadLink.A), RouterName(deadLink.B))
	simR := RunNetsim(net, sc, routes)

	// Livenet: identical routes, same trunk down before injection.
	liveFR := ledger.NewFlightRecorder(0)
	ln := BuildLivenet(sc, 0, 1, livenet.DefaultLinkDepth, livenet.WithFlightRecorder(liveFR))
	defer ln.Net.Stop()
	ln.Links[dead].SetDown(true)
	liveR := NewResult()
	ln.InstallEcho(sc, liveR)
	for _, f := range sc.Flows {
		if err := ln.Hosts[f.Src].Send(routes[f.ID], FlowData(f)); err != nil {
			liveR.AddSendErr()
		}
	}
	ln.Settle(liveR, 5*time.Second)

	for _, d := range Diff(simR, liveR, sc, "netsim", "livenet") {
		t.Error(d)
	}
	deliv, reply, garbled, _ := simR.Counts()
	if deliv != len(sc.Flows) || reply != len(sc.Flows) || garbled != 0 {
		t.Fatalf("netsim: %d delivered, %d replied, %d garbled; want %d/%d/0",
			deliv, reply, garbled, len(sc.Flows), len(sc.Flows))
	}

	// Every flow diverted exactly once, at the ingress router, on each
	// substrate; the flight records say so.
	if got := countKind(simFR, ledger.KindFailover); got != len(sc.Flows) {
		t.Errorf("netsim recorded %d failover events, want %d", got, len(sc.Flows))
	}
	if got := countKind(liveFR, ledger.KindFailover); got != len(sc.Flows) {
		t.Errorf("livenet recorded %d failover events, want %d", got, len(sc.Flows))
	}
}

// TestFailoverLedgerReconciliation is the billing half: under a dead
// primary with fully tokened DAG routes, the branch actually taken is
// the branch billed. Both substrates' swept ledgers must agree entry
// by entry and reconcile against their own TokenAuthorized counters —
// which they cannot do if a dead primary's token were ever charged, or
// a branch head's never.
func TestFailoverLedgerReconciliation(t *testing.T) {
	sc := failoverScenario(6)

	net := BuildNetsimTokened(sc)
	routes, err := FlowRoutesAccountedAlt(net, sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	dead := primaryTrunk(t, sc, routes[1])
	deadLink := sc.Links[dead]

	net.FailLink(RouterName(deadLink.A), RouterName(deadLink.B))
	simR := RunNetsim(net, sc, routes)
	simLed := CollectNetsimLedger(net)
	simCtrs := NetsimRouterCounters(net, sc)

	liveR, liveCtrs, liveLed, _ := runLivenetLedgered(sc, routes, 5*time.Second, func(ln *LiveNet) {
		ln.Links[dead].SetDown(true)
	})

	for _, d := range Diff(simR, liveR, sc, "netsim", "livenet") {
		t.Error(d)
	}
	deliv, _, _, _ := simR.Counts()
	if deliv != len(sc.Flows) {
		t.Fatalf("netsim delivered %d of %d under tokened failover", deliv, len(sc.Flows))
	}
	for _, d := range DiffLedgers(simLed, liveLed, "netsim", "livenet") {
		t.Error(d)
	}
	for _, p := range ledger.Reconcile("netsim", simLed, simCtrs) {
		t.Error(p)
	}
	for _, p := range ledger.Reconcile("livenet", liveLed, liveCtrs) {
		t.Error(p)
	}
	if simCtrs.TokenAuthorized == 0 {
		t.Fatal("tokened failover run authorized zero packets")
	}
}

// TestFailoverNetsimFlapStorm drives the deterministic substrate
// through repeated primary-trunk flaps with packets continuously in
// flight. Every injected packet must be delivered, dropped with a
// recorded reason, or attributable to a recorded fault event; nothing
// duplicates; and at least some packets demonstrably diverted.
func TestFailoverNetsimFlapStorm(t *testing.T) {
	const n = 120
	sc := failoverScenario(n)

	net := BuildNetsim(sc)
	routes, err := FlowRoutesAlt(net, sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	dead := primaryTrunk(t, sc, routes[1])
	a, b := RouterName(sc.Links[dead].A), RouterName(sc.Links[dead].B)

	fr := ledger.NewFlightRecorder(0)
	net.SetFlightRecorder(fr)
	for _, w := range []struct{ down, up sim.Time }{
		{1 * sim.Millisecond, 3 * sim.Millisecond},
		{6 * sim.Millisecond, 9 * sim.Millisecond},
		{14 * sim.Millisecond, 18 * sim.Millisecond},
	} {
		w := w
		net.Eng.Schedule(w.down, func() { net.FailLink(a, b) })
		net.Eng.Schedule(w.up, func() { net.RestoreLink(a, b) })
	}
	res := RunNetsim(net, sc, routes)

	deliv, _, garbled, sendErrs := res.Counts()
	if garbled != 0 || sendErrs != 0 {
		t.Fatalf("garbled=%d sendErrs=%d", garbled, sendErrs)
	}
	for _, f := range sc.Flows {
		if len(res.Deliveries(f.ID)) > 1 {
			t.Errorf("flow %d delivered %d times", f.ID, len(res.Deliveries(f.ID)))
		}
	}
	// Conservation bound: a flap can abort a frame mid-transmission, and
	// an abort inside the propagation window is not observable
	// downstream, so missing <= attributable rather than equality.
	trunk, _ := net.Link(a, b)
	lostAborted := trunk.AB.Lost + trunk.BA.Lost + trunk.AB.Aborts + trunk.BA.Aborts
	ctrs := NetsimRouterCounters(net, sc)
	missing := n - deliv
	if uint64(missing) > lostAborted+ctrs.TotalDrops() {
		t.Errorf("%d packets missing but only %d+%d attributable",
			missing, lostAborted, ctrs.TotalDrops())
	}
	// The storm must have actually exercised the failover path: some
	// packets arrived at the ingress router inside a down window.
	if countKind(fr, ledger.KindFailover) == 0 {
		t.Error("flap storm produced zero failover events")
	}
	// And failover must have preserved most of the traffic: an alternate
	// exists for every down window, so losses are bounded by the frames
	// caught mid-flight on the trunk itself.
	if deliv < n*3/4 {
		t.Errorf("only %d of %d delivered through the storm", deliv, n)
	}
}

// TestFailoverLivenetFlapStorm is the goroutine-substrate storm: the
// primary trunk flaps on a wall-clock cadence while flows inject
// concurrently. The same conservation bound applies, with the link's
// own drop counter standing in for netsim's abort accounting. It runs
// under both router partitions.
func TestFailoverLivenetFlapStorm(t *testing.T) {
	onBothPartitions(t, failoverLivenetFlapStorm)
}

func failoverLivenetFlapStorm(t *testing.T, split bool) {
	const n = 120
	sc := failoverScenario(n)
	sc.SplitRouters = split

	net := BuildNetsim(sc)
	routes, err := FlowRoutesAlt(net, sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	dead := primaryTrunk(t, sc, routes[1])

	fr := ledger.NewFlightRecorder(0)
	ln := BuildLivenet(sc, 0, 1, livenet.DefaultLinkDepth, livenet.WithFlightRecorder(fr))
	defer ln.Net.Stop()

	res := NewResult()
	var delivered atomic.Uint64
	for i := range ln.Hosts {
		name := HostName(i)
		h := ln.Hosts[i]
		h.Handle(0, func(d livenet.Delivery) {
			if id, kind, ok := ParseData(d.Data); ok && kind == kindRequest {
				delivered.Add(1)
				res.AddDelivery(id, DeliveryRec{Host: name, Fp: Fingerprint(d.ReturnRoute.Segments(nil)), DataOK: true})
			}
		})
	}

	stop := make(chan struct{})
	flapDone := make(chan struct{})
	go func() {
		defer close(flapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ln.Links[dead].SetDown(true)
			time.Sleep(2 * time.Millisecond)
			ln.Links[dead].SetDown(false)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	sendErrs := 0
	for _, f := range sc.Flows {
		if err := ln.Hosts[f.Src].Send(routes[f.ID], FlowData(f)); err != nil {
			sendErrs++
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	<-flapDone
	ln.Links[dead].SetDown(false)
	ln.Settle(res, 5*time.Second)

	for _, f := range sc.Flows {
		if len(res.Deliveries(f.ID)) > 1 {
			t.Errorf("flow %d delivered %d times", f.ID, len(res.Deliveries(f.ID)))
		}
	}
	missing := uint64(n-sendErrs) - delivered.Load()
	attributable := ln.Dropped() + ln.RouterCounters().TotalDrops()
	if missing > attributable {
		t.Errorf("%d packets missing but only %d attributable (linkDrops+routerDrops)",
			missing, attributable)
	}
	if delivered.Load() < n*3/4 {
		t.Errorf("only %d of %d delivered through the storm", delivered.Load(), n)
	}
	if countKind(fr, ledger.KindFailover) == 0 {
		t.Error("flap storm produced zero failover events")
	}
}
