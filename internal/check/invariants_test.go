package check

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/livenet"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/viper"
)

// The fault-injection invariants. Each test injects one class of fault
// and checks packet conservation: no packet is ever duplicated, and at
// quiesce every injected packet is exactly one of delivered, dropped
// with a recorded reason, or attributable to a recorded fault event
// (loss lottery, abort, link cut).

// counter tallies deliveries at a host endpoint, per flow ID. netsim is
// single-threaded, so no locking.
type counter struct {
	total int
	perID map[uint64]int
}

func countEndpoint(h *router.Host) *counter {
	c := &counter{perID: make(map[uint64]int)}
	h.Handle(0, func(d *router.Delivery) {
		c.total++
		if id, _, ok := ParseData(d.Data); ok {
			c.perID[id]++
		}
	})
	return c
}

func (c *counter) assertNoDup(t *testing.T) {
	t.Helper()
	for id, n := range c.perID {
		if n > 1 {
			t.Errorf("packet %d delivered %d times", id, n)
		}
	}
}

func mustRoute(t *testing.T, net *core.Internetwork, from, to string, prio viper.Priority, account uint32) []viper.Segment {
	t.Helper()
	rs, err := net.Routes(directory.Query{From: from, To: to, Priority: prio, Account: account})
	if err != nil || len(rs) == 0 {
		t.Fatalf("no route %s->%s: %v", from, to, err)
	}
	return rs[0].Segments
}

func cloneSegs(in []viper.Segment) []viper.Segment {
	out := make([]viper.Segment, len(in))
	for i := range in {
		out[i] = in[i].Clone()
	}
	return out
}

// sendAt schedules one packet injection at a virtual-time offset.
func sendAt(t *testing.T, net *core.Internetwork, h *router.Host, at sim.Time, route []viper.Segment, id uint64, size int) {
	t.Helper()
	net.Eng.Schedule(at, func() {
		if err := h.Send(route, FlowData(Flow{ID: id, Size: size})); err != nil {
			t.Errorf("send %d: %v", id, err)
		}
	})
}

// chain is the h0 --- R0 === R1 --- h1 test topology.
type chain struct {
	net    *core.Internetwork
	h0, h1 *router.Host
	r0, r1 *router.Router
	route  []viper.Segment
	dst    *counter
}

func buildChain(t *testing.T, seed int64) *chain {
	t.Helper()
	net := core.New(seed)
	r0 := net.AddRouter("R0", router.Config{})
	r1 := net.AddRouter("R1", router.Config{})
	h0 := net.AddHost("h0")
	h1 := net.AddHost("h1")
	net.Connect("h0", 1, "R0", 1, LinkRateBps, linkProp)
	net.Connect("R0", 2, "R1", 1, LinkRateBps, linkProp)
	net.Connect("R1", 2, "h1", 1, LinkRateBps, linkProp)
	return &chain{
		net: net, h0: h0, h1: h1, r0: r0, r1: r1,
		route: mustRoute(t, net, "h0", "h1", 1, 0),
		dst:   countEndpoint(h1),
	}
}

func (ch *chain) routerDrops() uint64 {
	return ch.r0.Stats.TotalDrops() + ch.r1.Stats.TotalDrops()
}

func (ch *chain) hostDrops() uint64 {
	a, b := ch.h0.Stats, ch.h1.Stats
	return a.DropNoIface + a.DropQueue + a.DropTx + a.DropAborted + a.Misdeliver +
		b.DropNoIface + b.DropQueue + b.DropTx + b.DropAborted + b.Misdeliver
}

// TestConservationUnderLoss: with random frame loss on two hops, every
// injected packet is exactly one of delivered, counted in a medium's
// Lost counter, or dropped with a reason. The loss lottery is drawn
// once per hop transmission, so the accounting is exact.
func TestConservationUnderLoss(t *testing.T) {
	ch := buildChain(t, 11)
	trunk, _ := ch.net.Link("R0", "R1")
	last, _ := ch.net.Link("R1", "h1")
	first, _ := ch.net.Link("h0", "R0")
	trunk.AB.SetLossRate(0.3)
	last.AB.SetLossRate(0.2)

	const n = 300
	for i := 0; i < n; i++ {
		sendAt(t, ch.net, ch.h0, sim.Time(i)*100*sim.Microsecond, ch.route, uint64(i+1), 64)
	}
	ch.net.Run()

	lost := first.AB.Lost + first.BA.Lost + trunk.AB.Lost + trunk.BA.Lost + last.AB.Lost + last.BA.Lost
	sent := ch.h0.Stats.Sent
	if sent != n {
		t.Fatalf("sent = %d, want %d", sent, n)
	}
	got := uint64(ch.dst.total) + lost + ch.routerDrops() + ch.hostDrops()
	if got != sent {
		t.Errorf("conservation: delivered(%d) + lost(%d) + routerDrops(%d) + hostDrops(%d) = %d, want sent %d",
			ch.dst.total, lost, ch.routerDrops(), ch.hostDrops(), got, sent)
	}
	if lost == 0 {
		t.Error("loss injection had no effect (0 frames lost out of 300 at 30%)")
	}
	ch.dst.assertNoDup(t)
}

// TestConservationLinkDown: packets sent into a cleanly failed trunk are
// all dropped at the router with DropTxError; packets sent before the
// failure and after the restore are all delivered. The accounting is
// exact because the link state only changes between quiesced bursts.
func TestConservationLinkDown(t *testing.T) {
	ch := buildChain(t, 12)
	const burst = 100
	spacing := 100 * sim.Microsecond

	for i := 0; i < burst; i++ {
		sendAt(t, ch.net, ch.h0, sim.Time(i)*spacing, ch.route, uint64(i+1), 64)
	}
	ch.net.Run()
	if ch.dst.total != burst {
		t.Fatalf("pre-failure burst: delivered %d of %d", ch.dst.total, burst)
	}

	ch.net.FailLink("R0", "R1")
	for i := 0; i < burst; i++ {
		sendAt(t, ch.net, ch.h0, sim.Time(i)*spacing, ch.route, uint64(burst+i+1), 64)
	}
	ch.net.Run()
	if ch.dst.total != burst {
		t.Errorf("failed trunk leaked packets: delivered %d, want %d", ch.dst.total, burst)
	}
	if got := ch.r0.Stats.Drops[router.DropTxError]; got != burst {
		t.Errorf("R0 tx-error drops = %d, want %d (one per packet into the dead trunk)", got, burst)
	}

	ch.net.RestoreLink("R0", "R1")
	for i := 0; i < burst; i++ {
		sendAt(t, ch.net, ch.h0, sim.Time(i)*spacing, ch.route, uint64(2*burst+i+1), 64)
	}
	ch.net.Run()
	if ch.dst.total != 2*burst {
		t.Errorf("post-restore: delivered %d, want %d", ch.dst.total, 2*burst)
	}

	sent := ch.h0.Stats.Sent
	if got := uint64(ch.dst.total) + ch.routerDrops() + ch.hostDrops(); got != sent {
		t.Errorf("conservation: accounted %d, sent %d", got, sent)
	}
	ch.dst.assertNoDup(t)
}

// TestConservationMidFlightFlap: the trunk fails and recovers twice
// while packets are in flight. Cutting a link mid-transmission aborts
// the partial frame, and an abort inside the propagation window is not
// observable downstream, so the accounting here is a bound rather than
// an equality: every missing packet is attributable to a recorded drop,
// loss, or abort — and no packet is ever duplicated.
func TestConservationMidFlightFlap(t *testing.T) {
	ch := buildChain(t, 13)
	const n = 200
	for i := 0; i < n; i++ {
		sendAt(t, ch.net, ch.h0, sim.Time(i)*20*sim.Microsecond, ch.route, uint64(i+1), 64)
	}
	for _, w := range []struct{ down, up sim.Time }{
		{1 * sim.Millisecond, 2 * sim.Millisecond},
		{3 * sim.Millisecond, 4 * sim.Millisecond},
	} {
		w := w
		ch.net.Eng.Schedule(w.down, func() { ch.net.FailLink("R0", "R1") })
		ch.net.Eng.Schedule(w.up, func() { ch.net.RestoreLink("R0", "R1") })
	}
	ch.net.Run()

	ch.dst.assertNoDup(t)
	first, _ := ch.net.Link("h0", "R0")
	trunk, _ := ch.net.Link("R0", "R1")
	last, _ := ch.net.Link("R1", "h1")
	aborts := first.AB.Aborts + first.BA.Aborts + trunk.AB.Aborts + trunk.BA.Aborts + last.AB.Aborts + last.BA.Aborts
	sent := ch.h0.Stats.Sent
	missing := sent - uint64(ch.dst.total)
	attributable := ch.routerDrops() + ch.hostDrops() + aborts
	if missing > attributable {
		t.Errorf("%d packets missing but only %d attributable (routerDrops=%d hostDrops=%d aborts=%d)",
			missing, attributable, ch.routerDrops(), ch.hostDrops(), aborts)
	}
	for _, p := range []uint8{1, 2} {
		if l := ch.r0.QueueLen(p); l != 0 {
			t.Errorf("R0 port %d queue not drained: %d", p, l)
		}
		if l := ch.r1.QueueLen(p); l != 0 {
			t.Errorf("R1 port %d queue not drained: %d", p, l)
		}
	}

	// The network must be fully usable after the flaps.
	before := ch.dst.total
	for i := 0; i < 20; i++ {
		sendAt(t, ch.net, ch.h0, sim.Time(i)*100*sim.Microsecond, ch.route, uint64(1000+i), 64)
	}
	ch.net.Run()
	if got := ch.dst.total - before; got != 20 {
		t.Errorf("post-flap burst: delivered %d of 20", got)
	}
}

// TestPreemptionStoreForward: a preemptive packet aborts a lower-priority
// transmission on a rate-mismatched (store-and-forward) hop. The router
// still holds the victim's full packet, so it retransmits: every packet
// is delivered exactly once, and the destination host observes exactly
// one aborted arrival per preemption.
func TestPreemptionStoreForward(t *testing.T) {
	net := core.New(21)
	r0 := net.AddRouter("R0", router.Config{})
	h0 := net.AddHost("h0")
	h1 := net.AddHost("h1")
	net.Connect("h0", 1, "R0", 1, LinkRateBps, linkProp)
	net.Connect("R0", 2, "h1", 1, 1e6, linkProp) // slow out link: store-and-forward
	low := mustRoute(t, net, "h0", "h1", 1, 0)
	high := mustRoute(t, net, "h0", "h1", 7, 0) // 7 is preemptive
	dst := countEndpoint(h1)

	const nLow = 20
	for i := 0; i < nLow; i++ {
		sendAt(t, net, h0, sim.Time(i)*250*sim.Microsecond, low, uint64(i+1), 256)
	}
	sendAt(t, net, h0, 3*sim.Millisecond, high, uint64(nLow+1), 64)
	net.Run()

	if dst.total != nLow+1 {
		t.Errorf("delivered %d, want %d (store-and-forward preemption must retransmit the victim)", dst.total, nLow+1)
	}
	dst.assertNoDup(t)
	if r0.Stats.Preemptions == 0 {
		t.Error("no preemption occurred; the scenario is not exercising the §2.1 abort path")
	}
	if h1.Stats.DropAborted != r0.Stats.Preemptions {
		t.Errorf("destination saw %d aborted arrivals, router preempted %d times",
			h1.Stats.DropAborted, r0.Stats.Preemptions)
	}
	if n := r0.Stats.TotalDrops(); n != 0 {
		t.Errorf("router dropped %d packets: %v", n, r0.Stats.Drops)
	}
}

// TestPreemptionCutThrough: on a rate-matched hop the router forwards
// cut-through and holds no copy, so a preempted victim is gone — the
// §2.1 trade-off. Conservation: sent == delivered + aborted arrivals at
// the destination.
func TestPreemptionCutThrough(t *testing.T) {
	net := core.New(22)
	r0 := net.AddRouter("R0", router.Config{})
	h0 := net.AddHost("h0")
	h1 := net.AddHost("h1")
	h2 := net.AddHost("h2")
	net.Connect("h0", 1, "R0", 1, LinkRateBps, linkProp)
	net.Connect("h1", 1, "R0", 2, LinkRateBps, linkProp)
	net.Connect("h2", 1, "R0", 3, LinkRateBps, linkProp)
	victim := mustRoute(t, net, "h0", "h2", 1, 0)
	preemptor := mustRoute(t, net, "h1", "h2", 7, 0)
	dst := countEndpoint(h2)

	sendAt(t, net, h0, 0, victim, 1, 512)                     // ~410µs on the wire
	sendAt(t, net, h1, 100*sim.Microsecond, preemptor, 2, 64) // lands mid-victim
	net.Run()

	if r0.Stats.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", r0.Stats.Preemptions)
	}
	if dst.perID[2] != 1 {
		t.Errorf("preemptive packet delivered %d times, want 1", dst.perID[2])
	}
	if dst.perID[1] != 0 {
		t.Errorf("cut-through victim delivered %d times, want 0 (no copy held to retransmit)", dst.perID[1])
	}
	if h2.Stats.DropAborted != 1 {
		t.Errorf("destination aborted arrivals = %d, want 1", h2.Stats.DropAborted)
	}
	sent := h0.Stats.Sent + h1.Stats.Sent
	if got := uint64(dst.total) + h2.Stats.DropAborted; got != sent {
		t.Errorf("conservation: delivered(%d) + aborted(%d) != sent(%d)", dst.total, h2.Stats.DropAborted, sent)
	}

	// The freed port must carry traffic normally afterwards.
	sendAt(t, net, h0, 0, victim, 3, 64)
	net.Run()
	if dst.perID[3] != 1 {
		t.Error("port unusable after preemption")
	}
}

// TestRateControlBackpressure: an overloaded store-and-forward port
// signals its feeders; the source host must receive rate signals and
// every packet must still be conserved across delivery and any
// queue-full drops.
func TestRateControlBackpressure(t *testing.T) {
	net := core.New(23)
	r0 := net.AddRouter("R0", router.Config{RateControl: &router.RateControlConfig{}})
	h0 := net.AddHost("h0")
	h1 := net.AddHost("h1")
	net.Connect("h0", 1, "R0", 1, LinkRateBps, linkProp)
	net.Connect("R0", 2, "h1", 1, 1e6, linkProp) // 10:1 overload
	route := mustRoute(t, net, "h0", "h1", 1, 0)
	dst := countEndpoint(h1)

	const n = 150
	for i := 0; i < n; i++ {
		sendAt(t, net, h0, sim.Time(i)*110*sim.Microsecond, route, uint64(i+1), 128)
	}
	net.Run()

	if h0.Stats.RateSignals == 0 {
		t.Error("source host never received a rate signal under 10:1 overload")
	}
	sent := h0.Stats.Sent
	hostDrops := h0.Stats.DropQueue + h0.Stats.DropTx + h1.Stats.DropAborted
	if got := uint64(dst.total) + r0.Stats.TotalDrops() + hostDrops; got != sent {
		t.Errorf("conservation: delivered(%d) + routerDrops(%d) + hostDrops(%d) != sent(%d)",
			dst.total, r0.Stats.TotalDrops(), hostDrops, sent)
	}
	dst.assertNoDup(t)
	if l := r0.QueueLen(2); l != 0 {
		t.Errorf("congested queue not drained at quiesce: %d", l)
	}
}

// TestTokenAccountingAndLimits: directory-issued tokens admit traffic and
// charge the right account; forged tokens are denied after exactly one
// full verification (the cache denies the rest); a byte-limited token
// admits exactly floor(limit / per-packet charge) packets; and the
// directory's collected bill equals the router cache's account totals.
func TestTokenAccountingAndLimits(t *testing.T) {
	net := core.New(24)
	r0 := net.AddRouter("R0", router.Config{TokenMode: token.Block})
	h0 := net.AddHost("h0")
	h1 := net.AddHost("h1")
	net.Connect("h0", 1, "R0", 1, LinkRateBps, linkProp)
	net.Connect("R0", 2, "h1", 1, LinkRateBps, linkProp)
	auth := net.GuardRouter("R0", []byte("sirpent-domain-key"), 2)
	dst := countEndpoint(h1)

	const account = 42
	route := mustRoute(t, net, "h0", "h1", 1, account)
	if len(route) != 3 || len(route[1].PortToken) == 0 {
		t.Fatalf("directory did not issue a token for the guarded router: %v", route)
	}
	forged := cloneSegs(route)
	forged[1].PortToken[0] ^= 0xFF

	const nValid, nForged = 50, 25
	for i := 0; i < nValid; i++ {
		sendAt(t, net, h0, sim.Time(i)*200*sim.Microsecond, route, uint64(i+1), 64)
	}
	for i := 0; i < nForged; i++ {
		sendAt(t, net, h0, sim.Time(i)*200*sim.Microsecond, forged, uint64(100+i), 64)
	}
	net.Run()

	if dst.total != nValid {
		t.Errorf("delivered %d, want %d (all valid, no forged)", dst.total, nValid)
	}
	if got := r0.Stats.Drops[router.DropTokenDenied]; got != nForged {
		t.Errorf("token-denied drops = %d, want %d", got, nForged)
	}
	cache := r0.TokenCache()
	if cache.Verifies != 2 {
		t.Errorf("full verifications = %d, want 2 (one valid token, one forged; the cache covers the rest)", cache.Verifies)
	}
	if cache.Hits < nValid+nForged-2 {
		t.Errorf("cache hits = %d, want >= %d", cache.Hits, nValid+nForged-2)
	}
	totals := cache.AccountTotals()
	if totals[account].Packets != nValid {
		t.Errorf("account %d charged %d packets, want %d", account, totals[account].Packets, nValid)
	}
	if totals[account].Bytes == 0 || totals[account].Bytes%nValid != 0 {
		t.Fatalf("account %d charged %d bytes; expected a nonzero multiple of %d identical packets",
			account, totals[account].Bytes, nValid)
	}
	perPkt := totals[account].Bytes / nValid

	// A token limited to 3.5 packets' worth of bytes admits exactly 3.
	limited := cloneSegs(route)
	limited[1].PortToken = auth.Issue(token.Spec{
		Account:     7,
		Port:        2,
		MaxPriority: 1,
		Limit:       3*perPkt + perPkt/2,
	})
	before := dst.total
	deniedBefore := r0.Stats.Drops[router.DropTokenDenied]
	for i := 0; i < 10; i++ {
		sendAt(t, net, h0, sim.Time(i)*200*sim.Microsecond, limited, uint64(200+i), 64)
	}
	net.Run()
	if got := dst.total - before; got != 3 {
		t.Errorf("limited token admitted %d packets, want 3", got)
	}
	if got := r0.Stats.Drops[router.DropTokenDenied] - deniedBefore; got != 7 {
		t.Errorf("limited token denied %d packets, want 7", got)
	}

	// §3: the directory's bill aggregates exactly what the routers
	// recorded.
	bill := net.CollectAccounting()
	for acct, want := range cache.AccountTotals() {
		if bill[acct] != want {
			t.Errorf("bill[%d] = %+v, cache says %+v", acct, bill[acct], want)
		}
	}
	dst.assertNoDup(t)
}

// livenetCrossScenario builds a fixed 2-router topology whose flows all
// cross the trunk, so trunk faults touch every packet's path.
func livenetCrossScenario(nFlows int) *Scenario {
	sc := &Scenario{
		Seed:       1,
		NRouters:   2,
		HostRouter: []int{0, 0, 1, 1},
		HostPort:   []uint8{2, 3, 2, 3},
		Links:      []Link{{A: 0, B: 1, APort: 1, BPort: 1}},
	}
	for i := 0; i < nFlows; i++ {
		src := i % 4
		dst := (src + 2) % 4 // always the other router's side
		sc.Flows = append(sc.Flows, Flow{Src: src, Dst: dst, Size: 64, Prio: 1, ID: uint64(i + 1)})
	}
	return sc
}

// TestLivenetConservation drives the goroutine substrate through trunk
// faults and checks conservation: every injected request either produced
// a reply at its source or is attributable to a counted link discard or
// router drop — across true concurrency, which is what -race runs of
// this package exercise.
func TestLivenetConservation(t *testing.T) {
	// faults is the trunk's fault-injection surface a disturber drives.
	type faults interface {
		SetDown(bool)
		SetLossRatio(float64)
	}
	conserve := func(t *testing.T, split bool, disturb func(trunk faults, stop <-chan struct{})) {
		sc := livenetCrossScenario(200)
		sc.SplitRouters = split
		routes, err := FlowRoutes(BuildNetsim(sc), sc)
		if err != nil {
			t.Fatal(err)
		}
		ln := BuildLivenet(sc, 0, 1, livenet.DefaultLinkDepth)
		defer ln.Net.Stop()
		res := NewResult()
		ln.InstallEcho(sc, res)

		stop := make(chan struct{})
		var faults sync.WaitGroup
		faults.Add(1)
		go func() {
			defer faults.Done()
			disturb(ln.Links[0], stop)
		}()

		var senders sync.WaitGroup
		for hi := 0; hi < 4; hi++ {
			hi := hi
			senders.Add(1)
			go func() {
				defer senders.Done()
				for _, f := range sc.Flows {
					if f.Src != hi {
						continue
					}
					if err := ln.Hosts[f.Src].Send(routes[f.ID], FlowData(f)); err != nil {
						res.AddSendErr()
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()
		}
		senders.Wait()
		close(stop)
		faults.Wait()
		ln.Settle(res, 15*time.Second)

		_, replies, garbled, sendErrs := res.Counts()
		if garbled != 0 || sendErrs != 0 {
			t.Errorf("garbled=%d sendErrs=%d, want 0", garbled, sendErrs)
		}
		for _, f := range sc.Flows {
			if n := len(res.Deliveries(f.ID)); n > 1 {
				t.Errorf("flow %d delivered %d times", f.ID, n)
			}
			if n := len(res.ReplyHosts(f.ID)); n > 1 {
				t.Errorf("flow %d replied %d times", f.ID, n)
			}
		}
		// Requests in == replies out + every counted discard. (Each
		// delivered request spawns one reply; a lost reply is itself a
		// counted discard.)
		accounted := uint64(replies) + ln.Dropped() + ln.RouterDrops()
		if accounted != uint64(len(sc.Flows)) {
			t.Errorf("conservation: replies(%d) + linkDrops(%d) + routerDrops(%d) = %d, want %d injected",
				replies, ln.Dropped(), ln.RouterDrops(), accounted, len(sc.Flows))
		}
	}

	// run checks conservation under disturb on both router partitions:
	// the trunk is a fused link, then a ring pair.
	run := func(t *testing.T, disturb func(trunk faults, stop <-chan struct{})) {
		onBothPartitions(t, func(t *testing.T, split bool) { conserve(t, split, disturb) })
	}

	t.Run("flapping-trunk", func(t *testing.T) {
		run(t, func(trunk faults, stop <-chan struct{}) {
			down := false
			for {
				select {
				case <-stop:
					trunk.SetDown(false)
					return
				case <-time.After(2 * time.Millisecond):
					down = !down
					trunk.SetDown(down)
				}
			}
		})
	})
	t.Run("lossy-trunk", func(t *testing.T) {
		run(t, func(trunk faults, stop <-chan struct{}) {
			trunk.SetLossRatio(0.3)
			<-stop
			trunk.SetLossRatio(0)
		})
	})
}
