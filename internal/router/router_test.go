package router

import (
	"bytes"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/viper"
)

// twoNetFixture is the paper's running example: two Ethernets joined by
// one router (§2's enetHdr1/enetHdr2 walk-through).
type twoNetFixture struct {
	eng        *sim.Engine
	r          *Router
	src, dst   *Host
	net1, net2 *netsim.EthernetSegment
	srcAddr    ethernet.Addr
	dstAddr    ethernet.Addr
	r1Addr     ethernet.Addr // router's address on net1
	r2Addr     ethernet.Addr // router's address on net2
}

func newTwoNetFixture(t testing.TB, cfg Config, rate float64) *twoNetFixture {
	return newTwoNetFixtureRates(t, cfg, rate, rate)
}

func newTwoNetFixtureRates(t testing.TB, cfg Config, rate1, rate2 float64) *twoNetFixture {
	t.Helper()
	f := &twoNetFixture{eng: sim.NewEngine(7)}
	f.net1 = netsim.NewEthernetSegment(f.eng, "net1", rate1, 5*sim.Microsecond)
	f.net2 = netsim.NewEthernetSegment(f.eng, "net2", rate2, 5*sim.Microsecond)
	f.r = New(f.eng, "R", cfg)
	f.src = NewHost(f.eng, "S")
	f.dst = NewHost(f.eng, "D")

	f.srcAddr = ethernet.AddrFromUint64(0x51)
	f.dstAddr = ethernet.AddrFromUint64(0xD1)
	f.r1Addr = ethernet.AddrFromUint64(0xA1)
	f.r2Addr = ethernet.AddrFromUint64(0xA2)

	f.src.AttachPort(f.net1.AttachStation(f.src, 1, f.srcAddr))
	f.r.AttachPort(f.net1.AttachStation(f.r, 1, f.r1Addr))
	f.r.AttachPort(f.net2.AttachStation(f.r, 2, f.r2Addr))
	f.dst.AttachPort(f.net2.AttachStation(f.dst, 1, f.dstAddr))
	return f
}

// route returns the forward source route S -> R -> D: the sender's own
// directive, the router's segment, and the destination host segment.
func (f *twoNetFixture) route(prio viper.Priority) []viper.Segment {
	return []viper.Segment{
		{
			Port:     1, // source's interface on net1
			Priority: prio,
			PortInfo: ethernet.Header{Dst: f.r1Addr, Src: f.srcAddr, Type: viper.EtherTypeVIPER}.Encode(),
		},
		{
			Port:     2, // router forwards out port 2 onto net2
			Priority: prio,
			PortInfo: ethernet.Header{Dst: f.dstAddr, Src: f.r2Addr, Type: viper.EtherTypeVIPER}.Encode(),
		},
		{
			Port:     viper.PortLocal, // destination endpoint
			Priority: prio,
		},
	}
}

func TestEndToEndRequestResponse(t *testing.T) {
	f := newTwoNetFixture(t, Config{}, 10e6)
	var got *Delivery
	f.dst.Handle(0, func(d *Delivery) {
		got = d
		// Reply using only the constructed return route.
		if err := f.dst.Send(d.ReturnRoute, []byte("pong")); err != nil {
			t.Errorf("reply Send: %v", err)
		}
	})
	var reply *Delivery
	f.src.Handle(0, func(d *Delivery) { reply = d })

	f.eng.Schedule(0, func() {
		if err := f.src.Send(f.route(0), []byte("ping")); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	f.eng.Run()

	if got == nil {
		t.Fatal("request not delivered")
	}
	if !bytes.Equal(got.Data, []byte("ping")) {
		t.Fatalf("request data = %q", got.Data)
	}
	if len(got.ReturnRoute) != 3 {
		t.Fatalf("return route has %d segments, want 3", len(got.ReturnRoute))
	}
	if reply == nil {
		t.Fatal("reply not delivered")
	}
	if !bytes.Equal(reply.Data, []byte("pong")) {
		t.Fatalf("reply data = %q", reply.Data)
	}
	if f.r.Stats.Arrivals != 2 {
		t.Errorf("router arrivals = %d, want 2", f.r.Stats.Arrivals)
	}
	if f.src.Stats.Misdeliver != 0 || f.dst.Stats.Misdeliver != 0 {
		t.Error("unexpected misdelivery")
	}
	// The reply's return route should again be usable (round-trip of the
	// reversal); its first segment is the source's own directive naming
	// interface 1.
	if reply.ReturnRoute[0].Port != 1 {
		t.Errorf("reply return route starts with port %d, want 1", reply.ReturnRoute[0].Port)
	}
}

func TestCutThroughWhenRatesMatch(t *testing.T) {
	f := newTwoNetFixture(t, Config{}, 10e6)
	f.dst.Handle(0, func(d *Delivery) {})
	f.eng.Schedule(0, func() { f.src.Send(f.route(0), make([]byte, 1000)) })
	f.eng.Run()
	if f.r.Stats.CutThrough != 1 {
		t.Fatalf("CutThrough = %d, want 1 (StoreForward = %d)", f.r.Stats.CutThrough, f.r.Stats.StoreForward)
	}
	// Per-hop forwarding delay is header time + decision time, far less
	// than the ~0.8ms store-and-forward packet time (§6.1).
	d := f.r.Stats.ForwardDelay.Mean()
	pktTime := float64(netsim.TxTime(1000, 10e6))
	if d >= pktTime/2 {
		t.Fatalf("cut-through delay %v >= half packet time %v", d, pktTime)
	}
}

func TestStoreForwardOnRateMismatch(t *testing.T) {
	// Router joins a 10 Mb/s Ethernet to a 100 Mb/s Ethernet:
	// cut-through does not apply across rates (§2.1).
	eng := sim.NewEngine(7)
	net1 := netsim.NewEthernetSegment(eng, "net1", 10e6, 0)
	net2 := netsim.NewEthernetSegment(eng, "net2", 100e6, 0)
	r := New(eng, "R", Config{})
	src := NewHost(eng, "S")
	dst := NewHost(eng, "D")
	sa, da := ethernet.AddrFromUint64(1), ethernet.AddrFromUint64(2)
	ra1, ra2 := ethernet.AddrFromUint64(3), ethernet.AddrFromUint64(4)
	src.AttachPort(net1.AttachStation(src, 1, sa))
	r.AttachPort(net1.AttachStation(r, 1, ra1))
	r.AttachPort(net2.AttachStation(r, 2, ra2))
	dst.AttachPort(net2.AttachStation(dst, 1, da))
	delivered := false
	dst.Handle(0, func(d *Delivery) { delivered = true })
	route := []viper.Segment{
		{Port: 1, PortInfo: ethernet.Header{Dst: ra1, Src: sa, Type: viper.EtherTypeVIPER}.Encode()},
		{Port: 2, PortInfo: ethernet.Header{Dst: da, Src: ra2, Type: viper.EtherTypeVIPER}.Encode()},
		{Port: viper.PortLocal},
	}
	eng.Schedule(0, func() { src.Send(route, make([]byte, 500)) })
	eng.Run()
	if !delivered {
		t.Fatal("not delivered")
	}
	if r.Stats.StoreForward != 1 || r.Stats.CutThrough != 0 {
		t.Fatalf("StoreForward=%d CutThrough=%d, want 1/0", r.Stats.StoreForward, r.Stats.CutThrough)
	}
}

// p2pChain builds S -(eth)- R1 -(p2p)- R2 ... Rn -(eth)- D with uniform
// rates, returning the hosts and routers.
func p2pChain(eng *sim.Engine, nRouters int, rate float64, prop sim.Time, cfg Config) (src, dst *Host, routers []*Router, route []viper.Segment) {
	src = NewHost(eng, "S")
	dst = NewHost(eng, "D")
	routers = make([]*Router, nRouters)
	for i := range routers {
		routers[i] = New(eng, "R"+string(rune('1'+i)), cfg)
	}
	sa := ethernet.AddrFromUint64(0x100)
	da := ethernet.AddrFromUint64(0x200)
	rFirst := ethernet.AddrFromUint64(0x300)
	rLast := ethernet.AddrFromUint64(0x400)

	netA := netsim.NewEthernetSegment(eng, "netA", rate, prop)
	src.AttachPort(netA.AttachStation(src, 1, sa))
	routers[0].AttachPort(netA.AttachStation(routers[0], 1, rFirst))

	route = append(route, viper.Segment{Port: 1, PortInfo: ethernet.Header{Dst: rFirst, Src: sa, Type: viper.EtherTypeVIPER}.Encode()})

	for i := 0; i < nRouters-1; i++ {
		link := netsim.NewP2PLink(eng, rate, prop)
		pa, pb := link.Attach(routers[i], 2, routers[i+1], 1)
		routers[i].AttachPort(pa)
		routers[i+1].AttachPort(pb)
		route = append(route, viper.Segment{Port: 2, Flags: viper.FlagVNT})
	}

	netB := netsim.NewEthernetSegment(eng, "netB", rate, prop)
	routers[nRouters-1].AttachPort(netB.AttachStation(routers[nRouters-1], 2, rLast))
	dst.AttachPort(netB.AttachStation(dst, 1, da))
	route = append(route, viper.Segment{Port: 2, PortInfo: ethernet.Header{Dst: da, Src: rLast, Type: viper.EtherTypeVIPER}.Encode()})
	route = append(route, viper.Segment{Port: viper.PortLocal})
	return src, dst, routers, route
}

func TestMultiHopMixedMedia(t *testing.T) {
	eng := sim.NewEngine(7)
	src, dst, routers, route := p2pChain(eng, 3, 10e6, 10*sim.Microsecond, Config{})
	var got *Delivery
	dst.Handle(0, func(d *Delivery) {
		got = d
		dst.Send(d.ReturnRoute, []byte("back"))
	})
	var reply *Delivery
	src.Handle(0, func(d *Delivery) { reply = d })
	eng.Schedule(0, func() {
		if err := src.Send(route, []byte("fwd")); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	eng.Run()
	if got == nil {
		t.Fatal("forward packet lost")
	}
	if len(got.ReturnRoute) != len(route) {
		t.Fatalf("return route %d segments, want %d", len(got.ReturnRoute), len(route))
	}
	if reply == nil {
		t.Fatal("reply lost (reversal across mixed Ethernet/p2p media broken)")
	}
	for i, r := range routers {
		if r.Stats.Arrivals != 2 {
			t.Errorf("router %d arrivals = %d, want 2", i, r.Stats.Arrivals)
		}
	}
	// All hops rate-matched: every forward is cut-through.
	for i, r := range routers {
		if r.Stats.CutThrough != 2 {
			t.Errorf("router %d CutThrough = %d, want 2", i, r.Stats.CutThrough)
		}
	}
}

func TestPriorityQueueOrderUnderContention(t *testing.T) {
	// Saturate the router's output port, then observe that queued
	// packets leave in priority order.
	f := newTwoNetFixture(t, Config{QueueLimit: 32}, 10e6)
	var order []viper.Priority
	f.dst.Handle(0, func(d *Delivery) {
		order = append(order, d.Pkt.Trailer[len(d.Pkt.Trailer)-1].Priority)
	})
	// Send a burst back-to-back: first occupies the port, the rest
	// queue. The source serializes on net1, so stagger via one send
	// event; the host queue preserves our priority order per drain.
	prios := []viper.Priority{0, 1, 5, 3, 15, 7}
	f.eng.Schedule(0, func() {
		for _, p := range prios {
			if err := f.src.Send(f.route(p), make([]byte, 800)); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
	})
	f.eng.Run()
	if len(order) == 0 {
		t.Fatal("nothing delivered")
	}
	// The host's own queue is also priority-ordered, so the global
	// delivery order must be by descending rank (7,5,3,1,0,15) except
	// the very first packet may have left before the rest queued.
	// Verify the tail is sorted by rank descending.
	for i := 2; i < len(order); i++ {
		if order[i-1].Rank() < order[i].Rank() {
			t.Fatalf("priority inversion in delivery order: %v", order)
		}
	}
	if len(order) != len(prios) {
		t.Fatalf("delivered %d packets, want %d", len(order), len(prios))
	}
}

func TestPreemptionAbortsLowerPriority(t *testing.T) {
	// A priority-7 packet arriving while a normal packet transmits
	// preempts it mid-transmission (§2.1, §5).
	eng := sim.NewEngine(7)
	// Two sources feed one router over separate p2p links; one output.
	r := New(eng, "R", Config{})
	s1, s2 := NewHost(eng, "s1"), NewHost(eng, "s2")
	d := NewHost(eng, "d")
	l1 := netsim.NewP2PLink(eng, 10e6, 0)
	p1a, p1b := l1.Attach(s1, 1, r, 1)
	s1.AttachPort(p1a)
	r.AttachPort(p1b)
	l2 := netsim.NewP2PLink(eng, 10e6, 0)
	p2a, p2b := l2.Attach(s2, 1, r, 2)
	s2.AttachPort(p2a)
	r.AttachPort(p2b)
	l3 := netsim.NewP2PLink(eng, 10e6, 0)
	p3a, p3b := l3.Attach(r, 3, d, 1)
	r.AttachPort(p3a)
	d.AttachPort(p3b)

	var delivered []viper.Priority
	d.Handle(0, func(dl *Delivery) {
		delivered = append(delivered, dl.Pkt.Trailer[len(dl.Pkt.Trailer)-1].Priority)
	})
	routeVia := func(prio viper.Priority) []viper.Segment {
		return []viper.Segment{
			{Port: 1, Priority: prio, Flags: viper.FlagVNT},
			{Port: 3, Priority: prio, Flags: viper.FlagVNT},
			{Port: viper.PortLocal, Priority: prio},
		}
	}
	// s1 sends a big low-priority packet; mid-transmission s2 sends a
	// preemptive one.
	eng.Schedule(0, func() { s1.Send(routeVia(0), make([]byte, 1400)) })
	eng.Schedule(300*sim.Microsecond, func() { s2.Send(routeVia(7), make([]byte, 200)) })
	eng.Run()

	if r.Stats.Preemptions != 1 {
		t.Fatalf("Preemptions = %d, want 1", r.Stats.Preemptions)
	}
	if len(delivered) < 1 || delivered[0] != 7 {
		t.Fatalf("delivery order = %v, want priority 7 first", delivered)
	}
	// The preempted packet was being cut-through (tail no longer
	// available), so it is lost — the transport retransmits (§4).
	if len(delivered) != 1 {
		t.Fatalf("delivered = %v, want only the preemptor", delivered)
	}
	if d.Stats.DropAborted != 1 {
		t.Errorf("destination aborted-frame drops = %d, want 1", d.Stats.DropAborted)
	}
}

func TestDropIfBlocked(t *testing.T) {
	// Fast ingress, slow egress: the second packet reaches the router
	// while the first still occupies the output port.
	f := newTwoNetFixtureRates(t, Config{}, 100e6, 10e6)
	n := 0
	f.dst.Handle(0, func(d *Delivery) { n++ })
	r := f.route(0)
	rDIB := f.route(0)
	for i := range rDIB {
		rDIB[i].Flags |= viper.FlagDIB
	}
	f.eng.Schedule(0, func() {
		f.src.Send(r, make([]byte, 1200))   // occupies router's output
		f.src.Send(rDIB, make([]byte, 600)) // should be dropped at router
	})
	f.eng.Run()
	if f.r.Stats.DropCount(DropIfBlocked) != 1 {
		t.Fatalf("DropIfBlocked = %d, want 1 (drops: %v)", f.r.Stats.DropCount(DropIfBlocked), f.r.Stats.Drops)
	}
	if n != 1 {
		t.Fatalf("delivered = %d, want 1", n)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	f := newTwoNetFixtureRates(t, Config{QueueLimit: 2}, 100e6, 10e6)
	n := 0
	f.dst.Handle(0, func(d *Delivery) { n++ })
	f.eng.Schedule(0, func() {
		for i := 0; i < 8; i++ {
			f.src.Send(f.route(0), make([]byte, 1000))
		}
	})
	f.eng.Run()
	drops := f.r.Stats.DropCount(DropQueueFull)
	if drops == 0 {
		t.Fatal("expected queue-full drops")
	}
	if uint64(n)+drops != 8 {
		t.Fatalf("delivered %d + dropped %d != 8", n, drops)
	}
}

func TestBadPortDrops(t *testing.T) {
	f := newTwoNetFixture(t, Config{}, 10e6)
	route := f.route(0)
	route[1].Port = 99 // router has no port 99
	f.eng.Schedule(0, func() { f.src.Send(route, []byte("x")) })
	f.eng.Run()
	if f.r.Stats.DropCount(DropBadPort) != 1 {
		t.Fatalf("DropBadPort = %d, want 1", f.r.Stats.DropCount(DropBadPort))
	}
}

func TestRouteExhaustedDrops(t *testing.T) {
	f := newTwoNetFixture(t, Config{}, 10e6)
	// Route ends AT the router (no host segment): the router's local
	// handler is not set, so the packet dies there; with a local
	// handler it would be the router's own stack.
	route := []viper.Segment{
		{Port: 1, PortInfo: ethernet.Header{Dst: f.r1Addr, Src: f.srcAddr, Type: viper.EtherTypeVIPER}.Encode()},
		{Port: viper.PortLocal},
	}
	got := false
	f.r.SetLocalHandler(func(pkt *viper.Packet, arr *netsim.Arrival) { got = true })
	f.eng.Schedule(0, func() { f.src.Send(route, []byte("to-router")) })
	f.eng.Run()
	if !got {
		t.Fatal("router local handler not invoked")
	}
	if f.r.Stats.Local != 1 {
		t.Fatalf("Local = %d", f.r.Stats.Local)
	}
}

func TestMisdeliveryCounted(t *testing.T) {
	f := newTwoNetFixture(t, Config{}, 10e6)
	route := f.route(0)
	route[2].Port = 9 // endpoint 9 not registered at destination
	f.dst.Handle(0, func(d *Delivery) { t.Error("delivered to wrong endpoint") })
	f.eng.Schedule(0, func() { f.src.Send(route, []byte("x")) })
	f.eng.Run()
	if f.dst.Stats.Misdeliver != 1 {
		t.Fatalf("Misdeliver = %d, want 1", f.dst.Stats.Misdeliver)
	}
}

func TestEndpointAddressing(t *testing.T) {
	// Intra-host addressing: segments can name a specific endpoint
	// within the host (§2.2).
	f := newTwoNetFixture(t, Config{}, 10e6)
	route := f.route(0)
	route[2].Port = 5
	var at uint8 = 255
	f.dst.Handle(5, func(d *Delivery) { at = d.Endpoint })
	f.eng.Schedule(0, func() { f.src.Send(route, []byte("x")) })
	f.eng.Run()
	if at != 5 {
		t.Fatalf("delivered to endpoint %d, want 5", at)
	}
}

func TestTruncationOnSmallMTU(t *testing.T) {
	f := newTwoNetFixture(t, Config{}, 10e6)
	f.net2.SetMTU(200)
	var got *Delivery
	f.dst.Handle(0, func(d *Delivery) { got = d })
	f.eng.Schedule(0, func() { f.src.Send(f.route(0), make([]byte, 1000)) })
	f.eng.Run()
	if got == nil {
		t.Fatal("truncated packet not delivered")
	}
	if !got.Truncated {
		t.Fatal("receiver cannot detect truncation")
	}
	if len(got.Data) >= 1000 {
		t.Fatalf("data not truncated: %d bytes", len(got.Data))
	}
	if f.r.Stats.Truncations != 1 {
		t.Fatalf("Truncations = %d", f.r.Stats.Truncations)
	}
}

func TestSendErrors(t *testing.T) {
	f := newTwoNetFixture(t, Config{}, 10e6)
	if err := f.src.Send(nil, nil); err != ErrEmptyRoute {
		t.Fatalf("err = %v, want ErrEmptyRoute", err)
	}
	if err := f.src.Send([]viper.Segment{{Port: 42}}, nil); err != ErrNoIface {
		t.Fatalf("err = %v, want ErrNoIface", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := (&Config{}).withDefaults()
	if c.DecisionTime != 500*sim.Nanosecond || c.TokenVerifyTime != 100*sim.Microsecond || c.QueueLimit != 64 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestDropReasonString(t *testing.T) {
	if DropIfBlocked.String() != "drop-if-blocked" || DropReason(99).String() != "unknown" {
		t.Fatal("DropReason.String broken")
	}
}

func TestTokenRequiredDeniesBareTraffic(t *testing.T) {
	f := newTwoNetFixture(t, Config{}, 10e6)
	auth := token.NewAuthority([]byte("k"))
	f.r.SetTokenAuthority(auth)
	f.r.RequireToken(2)
	f.dst.Handle(0, func(d *Delivery) { t.Error("unauthorized packet delivered") })
	f.eng.Schedule(0, func() { f.src.Send(f.route(0), []byte("x")) })
	f.eng.Run()
	if f.r.Stats.DropCount(DropTokenDenied) != 1 {
		t.Fatalf("DropTokenDenied = %d", f.r.Stats.DropCount(DropTokenDenied))
	}
}

func TestTokenOptimisticFirstPacketPasses(t *testing.T) {
	f := newTwoNetFixture(t, Config{TokenMode: token.Optimistic}, 10e6)
	auth := token.NewAuthority([]byte("k"))
	f.r.SetTokenAuthority(auth)
	f.r.RequireToken(2)
	tok := auth.Issue(token.Spec{Account: 1, Port: 2, MaxPriority: 7, ReverseOK: true})
	n := 0
	f.dst.Handle(0, func(d *Delivery) { n++ })
	route := f.route(0)
	route[1].PortToken = tok
	f.eng.Schedule(0, func() { f.src.Send(route, []byte("first")) })
	f.eng.Schedule(10*sim.Millisecond, func() {
		r2 := f.route(0)
		r2[1].PortToken = tok
		f.src.Send(r2, []byte("second"))
	})
	f.eng.Run()
	if n != 2 {
		t.Fatalf("delivered %d, want 2 (optimistic admits the first)", n)
	}
	if f.r.TokenCache().Verifies != 1 {
		t.Errorf("full verifications = %d, want 1", f.r.TokenCache().Verifies)
	}
	u, ok := f.r.TokenCache().UsageFor(tok)
	if !ok || u.Packets != 2 {
		t.Errorf("accounting = %+v ok=%v, want 2 packets", u, ok)
	}
}

func TestTokenOptimisticForgedStormBlocked(t *testing.T) {
	f := newTwoNetFixture(t, Config{TokenMode: token.Optimistic}, 10e6)
	auth := token.NewAuthority([]byte("k"))
	f.r.SetTokenAuthority(auth)
	f.r.RequireToken(2)
	forged := make([]byte, token.WireLen)
	n := 0
	f.dst.Handle(0, func(d *Delivery) { n++ })
	send := func() {
		route := f.route(0)
		route[1].PortToken = forged
		f.src.Send(route, []byte("evil"))
	}
	f.eng.Schedule(0, send)
	// After verification latency the negative cache blocks repeats.
	f.eng.Schedule(50*sim.Millisecond, send)
	f.eng.Schedule(100*sim.Millisecond, send)
	f.eng.Run()
	if n != 1 {
		t.Fatalf("delivered %d, want 1 (only the optimistic first)", n)
	}
	if f.r.Stats.DropCount(DropTokenDenied) != 2 {
		t.Fatalf("DropTokenDenied = %d, want 2", f.r.Stats.DropCount(DropTokenDenied))
	}
}

func TestTokenBlockModeHoldsFirstPacket(t *testing.T) {
	f := newTwoNetFixture(t, Config{TokenMode: token.Block, TokenVerifyTime: 2 * sim.Millisecond}, 10e6)
	auth := token.NewAuthority([]byte("k"))
	f.r.SetTokenAuthority(auth)
	f.r.RequireToken(2)
	tok := auth.Issue(token.Spec{Account: 1, Port: 2, MaxPriority: 7})
	var deliveredAt sim.Time
	f.dst.Handle(0, func(d *Delivery) { deliveredAt = d.At })
	route := f.route(0)
	route[1].PortToken = tok
	f.eng.Schedule(0, func() { f.src.Send(route, []byte("x")) })
	f.eng.Run()
	if deliveredAt == 0 {
		t.Fatal("blocked packet never released")
	}
	if deliveredAt < 2*sim.Millisecond {
		t.Fatalf("delivered at %v, before verification completed", deliveredAt)
	}
}

func TestTokenDropModeDropsFirstThenServes(t *testing.T) {
	f := newTwoNetFixture(t, Config{TokenMode: token.Drop, TokenVerifyTime: sim.Millisecond}, 10e6)
	auth := token.NewAuthority([]byte("k"))
	f.r.SetTokenAuthority(auth)
	f.r.RequireToken(2)
	tok := auth.Issue(token.Spec{Account: 1, Port: 2, MaxPriority: 7})
	n := 0
	f.dst.Handle(0, func(d *Delivery) { n++ })
	send := func() {
		route := f.route(0)
		route[1].PortToken = tok
		f.src.Send(route, []byte("x"))
	}
	f.eng.Schedule(0, send)
	f.eng.Schedule(10*sim.Millisecond, send)
	f.eng.Run()
	if n != 1 {
		t.Fatalf("delivered %d, want 1 (first dropped, second served from cache)", n)
	}
	if f.r.Stats.DropCount(DropTokenDenied) != 1 {
		t.Fatalf("DropTokenDenied = %d", f.r.Stats.DropCount(DropTokenDenied))
	}
}

func TestReverseTokenRidesTrailer(t *testing.T) {
	f := newTwoNetFixture(t, Config{TokenMode: token.Optimistic}, 10e6)
	auth := token.NewAuthority([]byte("k"))
	f.r.SetTokenAuthority(auth)
	f.r.RequireToken(1) // return direction uses port 1
	f.r.RequireToken(2)
	tok := auth.Issue(token.Spec{Account: 1, Port: token.PortAny, MaxPriority: 7, ReverseOK: true})
	var reply *Delivery
	f.dst.Handle(0, func(d *Delivery) {
		// The return route's router segment must carry the token.
		found := false
		for _, s := range d.ReturnRoute {
			if len(s.PortToken) > 0 {
				found = true
			}
		}
		if !found {
			t.Error("reverse route lacks the token despite ReverseOK")
		}
		f.dst.Send(d.ReturnRoute, []byte("pong"))
	})
	f.src.Handle(0, func(d *Delivery) { reply = d })
	route := f.route(0)
	route[1].PortToken = tok
	f.eng.Schedule(0, func() { f.src.Send(route, []byte("ping")) })
	f.eng.Run()
	if reply == nil {
		t.Fatal("reply blocked despite reverse authorization")
	}
}

func TestReverseTokenOmittedWhenNotAuthorized(t *testing.T) {
	f := newTwoNetFixture(t, Config{TokenMode: token.Optimistic, TokenVerifyTime: sim.Microsecond}, 10e6)
	auth := token.NewAuthority([]byte("k"))
	f.r.SetTokenAuthority(auth)
	f.r.RequireToken(2)
	tok := auth.Issue(token.Spec{Account: 1, Port: 2, MaxPriority: 7, ReverseOK: false})
	var got *Delivery
	f.dst.Handle(0, func(d *Delivery) { got = d })
	// Prime the cache first so the router knows ReverseOK=false.
	route := f.route(0)
	route[1].PortToken = tok
	r2 := f.route(0)
	r2[1].PortToken = tok
	f.eng.Schedule(0, func() { f.src.Send(route, []byte("a")) })
	f.eng.Schedule(10*sim.Millisecond, func() { f.src.Send(r2, []byte("b")) })
	f.eng.Run()
	if got == nil {
		t.Fatal("nothing delivered")
	}
	for _, s := range got.ReturnRoute {
		if len(s.PortToken) > 0 {
			t.Fatal("token leaked onto reverse route despite ReverseOK=false")
		}
	}
}

func TestLogicalGroupLoadBalances(t *testing.T) {
	// A logical port backed by 3 physical p2p links to the same next
	// router; a burst should spread across free members (§2.2).
	eng := sim.NewEngine(7)
	r1 := New(eng, "r1", Config{})
	r2 := New(eng, "r2", Config{})
	src := NewHost(eng, "s")
	dst := NewHost(eng, "d")

	lin := netsim.NewP2PLink(eng, 100e6, 0)
	pa, pb := lin.Attach(src, 1, r1, 1)
	src.AttachPort(pa)
	r1.AttachPort(pb)

	var trunk []*netsim.P2PLink
	for i := uint8(0); i < 3; i++ {
		link := netsim.NewP2PLink(eng, 10e6, 0)
		qa, qb := link.Attach(r1, 10+i, r2, 10+i)
		r1.AttachPort(qa)
		r2.AttachPort(qb)
		trunk = append(trunk, link)
	}
	r1.SetLogicalGroup(50, []uint8{10, 11, 12})

	lout := netsim.NewP2PLink(eng, 100e6, 0)
	oa, ob := lout.Attach(r2, 2, dst, 1)
	r2.AttachPort(oa)
	dst.AttachPort(ob)

	n := 0
	dst.Handle(0, func(d *Delivery) { n++ })
	route := []viper.Segment{
		{Port: 1, Flags: viper.FlagVNT},
		{Port: 50, Flags: viper.FlagVNT}, // logical hop
		{Port: 2, Flags: viper.FlagVNT},
		{Port: viper.PortLocal},
	}
	eng.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			src.Send(cloneRoute(route), make([]byte, 1000))
		}
	})
	eng.Run()
	if n != 3 {
		t.Fatalf("delivered %d, want 3", n)
	}
	// With 3 free members, the 3 packets should each have used a
	// different physical trunk link and suffered no queue delay at r1.
	for i, link := range trunk {
		if link.AB.Transmissions != 1 {
			t.Errorf("trunk %d carried %d transmissions, want 1", i, link.AB.Transmissions)
		}
	}
	if max := r1.Stats.QueueDelay.Max(); max > float64(sim.Microsecond) {
		t.Errorf("queue delay max = %v ns; logical group failed to spread load", max)
	}
}

func TestMulticastReservedPort(t *testing.T) {
	// Port 200 fans out to ports 2 and 3 (§2's first multicast
	// mechanism).
	eng := sim.NewEngine(7)
	r := New(eng, "r", Config{})
	src := NewHost(eng, "s")
	d1 := NewHost(eng, "d1")
	d2 := NewHost(eng, "d2")

	lin := netsim.NewP2PLink(eng, 10e6, 0)
	pa, pb := lin.Attach(src, 1, r, 1)
	src.AttachPort(pa)
	r.AttachPort(pb)

	l1 := netsim.NewP2PLink(eng, 10e6, 0)
	qa, qb := l1.Attach(r, 2, d1, 1)
	r.AttachPort(qa)
	d1.AttachPort(qb)
	l2 := netsim.NewP2PLink(eng, 10e6, 0)
	ra, rb := l2.Attach(r, 3, d2, 1)
	r.AttachPort(ra)
	d2.AttachPort(rb)

	r.SetMulticastGroup(200, []uint8{2, 3})

	got1, got2 := 0, 0
	d1.Handle(0, func(d *Delivery) { got1++ })
	d2.Handle(0, func(d *Delivery) { got2++ })
	route := []viper.Segment{
		{Port: 1, Flags: viper.FlagVNT},
		{Port: 200, Flags: viper.FlagVNT},
		{Port: viper.PortLocal},
	}
	eng.Schedule(0, func() { src.Send(route, []byte("multi")) })
	eng.Run()
	if got1 != 1 || got2 != 1 {
		t.Fatalf("deliveries = %d/%d, want 1/1", got1, got2)
	}
}

// BenchmarkSimulatorThroughput measures the simulator itself: how many
// simulated packet-hops per wall-clock second the event engine and
// router sustain over a 2-router chain (useful for sizing bigger
// experiments).
func BenchmarkSimulatorThroughput(b *testing.B) {
	eng := sim.NewEngine(1)
	src := NewHost(eng, "src")
	dst := NewHost(eng, "dst")
	r1 := New(eng, "R1", Config{QueueLimit: 1 << 16})
	r2 := New(eng, "R2", Config{QueueLimit: 1 << 16})
	attach := func(n netsim.Node, p *netsim.Port) {
		switch v := n.(type) {
		case *Host:
			v.AttachPort(p)
		case *Router:
			v.AttachPort(p)
		}
	}
	link := func(a netsim.Node, ap uint8, c netsim.Node, cp uint8) {
		pa, pb := netsim.NewP2PLink(eng, 1e9, 0).Attach(a, ap, c, cp)
		attach(a, pa)
		attach(c, pb)
	}
	link(src, 1, r1, 1)
	link(r1, 2, r2, 1)
	link(r2, 2, dst, 1)
	n := 0
	dst.Handle(0, func(d *Delivery) { n++ })
	route := []viper.Segment{
		{Port: 1, Flags: viper.FlagVNT},
		{Port: 2, Flags: viper.FlagVNT},
		{Port: 2, Flags: viper.FlagVNT},
		{Port: viper.PortLocal},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := make([]viper.Segment, len(route))
		copy(cp, route)
		eng.Schedule(0, func() { src.Send(cp, make([]byte, 512)) })
		eng.Run()
	}
	b.StopTimer()
	if n != b.N {
		b.Fatalf("delivered %d of %d", n, b.N)
	}
	b.ReportMetric(float64(3*b.N)/b.Elapsed().Seconds(), "hops/s")
}
