package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cvc"
	"repro/internal/directory"
	"repro/internal/ethernet"
	"repro/internal/ipnet"
	"repro/internal/netsim"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/viper"
	"repro/internal/vmtp"
	"repro/internal/workload"
)

func init() {
	register("E09", E09CVCComparison)
	register("E10", E10MPL)
	register("E11", E11Multicast)
	register("E12", E12SelectiveRetx)
	register("E13", E13ReturnRoute)
}

// E09CVCComparison reproduces §1's two CVC criticisms: transactional
// traffic pays the circuit-setup round trip, and bursty sources holding
// reserved circuits leave the trunk underutilized or calls blocked.
func E09CVCComparison() *Table {
	t := &Table{
		ID:    "E09",
		Title: "Sirpent vs concatenated virtual circuits (§1, §6.1)",
		Claim: "either the circuit setup cost is incurred frequently or circuits are held and not well utilized",
		Columns: []string{
			"metric", "sirpent", "cvc", "note",
		},
	}
	// Part 1: one request/response transaction across 3 switches.
	sir := sirpentTransaction(3)
	cvcLat := cvcTransaction(3)
	t.AddRow("transaction latency", ms(float64(sir)), ms(float64(cvcLat)), "CVC pays setup RTT first")
	t.AddCheck("transaction: sirpent faster", sir < cvcLat, "%v vs %v", sir, cvcLat)

	// Part 2: bursty sources over one 10 Mb/s trunk. Each source peaks
	// at 4 Mb/s with a 10% duty cycle (mean 0.4 Mb/s). CVC reserves the
	// peak, admitting 2 circuits; Sirpent statistically multiplexes all.
	nSrc := 8
	sirBytes, sirUtil := sirpentBurstyGoodput(nSrc)
	admitted := cvcAdmitted(nSrc, 4e6)
	onoff := &workload.OnOff{PeakRatePerSec: 500, MeanOn: 20 * sim.Millisecond, MeanOff: 180 * sim.Millisecond}
	cvcUtil := float64(admitted) * onoff.MeanRate() * 1000 * 8 / 10e6
	t.AddRow(fmt.Sprintf("bursty sources served (of %d)", nSrc), fi(nSrc), fi(admitted), "CVC admission reserves peak rate")
	t.AddRow("trunk goodput", pct(sirUtil), pct(cvcUtil), "Sirpent stat-muxes all sources")
	_ = sirBytes
	t.AddCheck("sirpent serves all bursty sources; CVC blocks some", admitted < nSrc, "admitted %d", admitted)
	t.AddCheck("sirpent utilization exceeds reserved-circuit utilization", sirUtil > cvcUtil, "%s vs %s", pct(sirUtil), pct(cvcUtil))
	return t
}

func sirpentTransaction(hops int) sim.Time {
	eng := sim.NewEngine(71)
	src := router.NewHost(eng, "src")
	dst := router.NewHost(eng, "dst")
	var route []viper.Segment
	route = append(route, viper.Segment{Port: 1, Flags: viper.FlagVNT})
	prev := netsim.Node(src)
	prevPort := uint8(1)
	for i := 0; i < hops; i++ {
		r := router.New(eng, "R", router.Config{})
		l := netsim.NewP2PLink(eng, linkRate, linkProp)
		pa, pb := l.Attach(prev, prevPort, r, 1)
		attachAny(prev, pa)
		r.AttachPort(pb)
		prev, prevPort = r, 2
		route = append(route, viper.Segment{Port: 2, Flags: viper.FlagVNT})
	}
	l := netsim.NewP2PLink(eng, linkRate, linkProp)
	pa, pb := l.Attach(prev, prevPort, dst, 1)
	attachAny(prev, pa)
	dst.AttachPort(pb)
	route = append(route, viper.Segment{Port: viper.PortLocal})
	// route currently: [src, R1..Rn(port 2 each), local] — but the last
	// router's segment must be the one before local; already so.

	ckA, ckB := clock.New(eng, 0, 0), clock.New(eng, 0, 0)
	client := vmtp.NewEndpoint(eng, src, ckA, 1, 1, vmtp.Config{})
	server := vmtp.NewEndpoint(eng, dst, ckB, 2, 1, vmtp.Config{})
	server.SetHandler(func(from uint64, data []byte) []byte { return data })
	// Terminate at host endpoint 1.
	route[len(route)-1].Port = 1

	var done sim.Time = -1
	eng.Schedule(0, func() {
		client.Call(server.ID(), [][]viper.Segment{route}, make([]byte, 500), func(resp []byte, err error) {
			if err == nil {
				done = eng.Now()
			}
		})
	})
	eng.Run()
	return done
}

func cvcTransaction(hops int) sim.Time {
	eng := sim.NewEngine(71)
	hA := cvc.NewHost(eng, "hA")
	hB := cvc.NewHost(eng, "hB")
	prev := netsim.Node(hA)
	prevPort := uint8(1)
	var path []uint8
	for i := 0; i < hops; i++ {
		s := cvc.NewSwitch(eng, "S", cvc.SwitchConfig{})
		l := netsim.NewP2PLink(eng, linkRate, linkProp)
		pa, pb := l.Attach(prev, prevPort, s, 1)
		switch v := prev.(type) {
		case *cvc.Host:
			v.AttachPort(pa)
		case *cvc.Switch:
			v.AttachPort(pa)
		}
		s.AttachPort(pb)
		prev, prevPort = s, 2
		path = append(path, 2)
	}
	l := netsim.NewP2PLink(eng, linkRate, linkProp)
	pa, pb := l.Attach(prev, prevPort, hB, 1)
	prev.(*cvc.Switch).AttachPort(pa)
	hB.AttachPort(pb)

	var done sim.Time = -1
	// Request/response over the circuit: hB echoes.
	hB.OnData(func(vc uint16, data []byte) {
		if c := findOpen(hB, vc); c != nil {
			hB.Send(c, data)
		}
	})
	eng.Schedule(0, func() {
		hA.Open(path, 0, func(c *cvc.Circuit, err error) {
			if err != nil {
				return
			}
			hA.OnData(func(vc uint16, data []byte) { done = eng.Now() })
			hA.Send(c, make([]byte, 500))
		})
	})
	eng.Run()
	return done
}

func findOpen(h *cvc.Host, vc uint16) *cvc.Circuit {
	// The CVC host tracks open circuits; re-synthesize a handle for the
	// callee side (its Open map is internal, so we use a thin probe).
	return h.Circuit(vc)
}

// sirpentBurstyGoodput runs nSrc on/off sources over the bottleneck and
// returns (delivered bytes, trunk utilization).
func sirpentBurstyGoodput(nSrc int) (uint64, float64) {
	b := newBottleneck(nSrc, linkRate, router.Config{QueueLimit: 64})
	r := rand.New(rand.NewSource(73))
	const horizon = 2 * sim.Second
	for i := range b.srcs {
		src := b.srcs[i]
		oo := &workload.OnOff{PeakRatePerSec: 500, MeanOn: 20 * sim.Millisecond, MeanOff: 180 * sim.Millisecond}
		var tick func()
		tick = func() {
			if b.eng.Now() >= horizon {
				return
			}
			src.Send(b.route(), make([]byte, 1000))
			b.eng.Schedule(oo.Next(r), tick)
		}
		b.eng.Schedule(oo.Next(r), tick)
	}
	b.eng.RunUntil(horizon + 500*sim.Millisecond)
	return b.trunk.AB.BytesCarried, b.trunk.AB.Utilization(horizon)
}

// cvcAdmitted runs nSrc circuit-setup attempts each reserving peak
// bandwidth over one 10 Mb/s trunk and returns how many are admitted.
func cvcAdmitted(nSrc int, reserveBps float64) int {
	eng := sim.NewEngine(73)
	sw := cvc.NewSwitch(eng, "S", cvc.SwitchConfig{})
	sink := cvc.NewHost(eng, "sink")
	l := netsim.NewP2PLink(eng, linkRate, linkProp)
	pa, pb := l.Attach(sw, 2, sink, 1)
	sw.AttachPort(pa)
	sink.AttachPort(pb)
	admitted := 0
	for i := 0; i < nSrc; i++ {
		h := cvc.NewHost(eng, "h")
		hl := netsim.NewP2PLink(eng, linkRate, linkProp)
		ha, hb := hl.Attach(h, 1, sw, uint8(10+i))
		h.AttachPort(ha)
		sw.AttachPort(hb)
		eng.Schedule(sim.Time(i)*sim.Millisecond, func() {
			h.Open([]uint8{2}, reserveBps, func(c *cvc.Circuit, err error) {
				if err == nil {
					admitted++
				}
			})
		})
	}
	eng.Run()
	return admitted
}

// E10MPL reproduces §4.2: creation timestamps enforce the maximum packet
// lifetime end to end with approximately synchronized clocks — no router
// TTL updates.
func E10MPL() *Table {
	t := &Table{
		ID:    "E10",
		Title: "Timestamp-based maximum packet lifetime (§4.2)",
		Claim: "the receiver discards packets that are older than an acceptable period; clock synchronization need not be more accurate than multiple seconds",
		Columns: []string{
			"packet age", "receiver skew", "MPL", "accepted",
		},
	}
	run := func(age, skew, mpl sim.Time) bool {
		eng := sim.NewEngine(77)
		eng.RunUntil(2 * sim.Minute)
		h := router.NewHost(eng, "h")
		ck := clock.New(eng, skew, 0)
		ep := vmtp.NewEndpoint(eng, h, ck, 0xE, 1, vmtp.Config{MPL: mpl})
		accepted := false
		ep.SetHandler(func(from uint64, data []byte) []byte { accepted = true; return nil })
		// Craft a request stamped "age" ago by a true-time sender.
		sender := clock.New(eng, 0, 0)
		p := &vmtp.Packet{Header: vmtp.Header{
			Client: 1, Server: 0xE, Txn: 1, Kind: vmtp.KindRequest, NPkts: 1,
			Timestamp: clock.Timestamp(uint32((sender.Now() - age) / sim.Millisecond)),
		}, Data: []byte("x")}
		ep.Deliver(&router.Delivery{Data: p.Encode(), Pkt: &viper.Packet{}})
		eng.Run()
		return accepted
	}
	mpl := 30 * sim.Second
	okAll := true
	for _, c := range []struct {
		age, skew sim.Time
		want      bool
	}{
		{0, 0, true},
		{10 * sim.Second, 0, true},
		{29 * sim.Second, 0, true},
		{31 * sim.Second, 0, false},
		{60 * sim.Second, 0, false},
		{10 * sim.Second, 2 * sim.Second, true},   // skewed but within bounds
		{10 * sim.Second, -2 * sim.Second, true},  // receiver behind sender
		{45 * sim.Second, -2 * sim.Second, false}, // stale regardless of skew
	} {
		got := run(c.age, c.skew, mpl)
		t.AddRow(c.age.String(), c.skew.String(), mpl.String(), fmt.Sprintf("%v", got))
		if got != c.want {
			okAll = false
		}
	}
	t.AddCheck("acceptance matrix matches §4.2", okAll, "see rows")
	return t
}

// E11Multicast compares the paper's three multicast mechanisms (§2) on a
// star: all must reach every member; the table reports the frames each
// mechanism puts on the source's access link.
func E11Multicast() *Table {
	t := &Table{
		ID:    "E11",
		Title: "Three multicast mechanisms (§2)",
		Claim: "port values reserved for multiple ports; tree-structured route specification; multicast agents for 'explosion'",
		Columns: []string{
			"mechanism", "members reached", "frames on source link", "frames on member links",
		},
	}
	res := runMulticastStar()
	okAll := true
	for _, r := range res {
		t.AddRow(r.name, fi(r.reached), fu(r.srcFrames), fu(r.memberFrames))
		if r.reached != 3 {
			okAll = false
		}
	}
	t.AddCheck("all mechanisms reach all 3 members", okAll, "see rows")
	return t
}

type mcastResult struct {
	name         string
	reached      int
	srcFrames    uint64
	memberFrames uint64
}

func runMulticastStar() []mcastResult {
	build := func() (*sim.Engine, *router.Host, *router.Router, []*router.Host, *netsim.P2PLink, []*netsim.P2PLink, *int) {
		eng := sim.NewEngine(79)
		src := router.NewHost(eng, "src")
		r := router.New(eng, "R", router.Config{})
		lin := netsim.NewP2PLink(eng, linkRate, linkProp)
		pa, pb := lin.Attach(src, 1, r, 1)
		src.AttachPort(pa)
		r.AttachPort(pb)
		var leaves []*router.Host
		var links []*netsim.P2PLink
		n := new(int)
		for i := 0; i < 3; i++ {
			d := router.NewHost(eng, "d")
			l := netsim.NewP2PLink(eng, linkRate, linkProp)
			qa, qb := l.Attach(r, uint8(2+i), d, 1)
			r.AttachPort(qa)
			d.AttachPort(qb)
			d.Handle(0, func(dl *router.Delivery) { *n++ })
			leaves = append(leaves, d)
			links = append(links, l)
		}
		return eng, src, r, leaves, lin, links, n
	}
	var out []mcastResult

	// 1: reserved port.
	{
		eng, src, r, _, lin, links, n := build()
		r.SetMulticastGroup(200, []uint8{2, 3, 4})
		eng.Schedule(0, func() {
			src.Send([]viper.Segment{
				{Port: 1, Flags: viper.FlagVNT},
				{Port: 200, Flags: viper.FlagVNT},
				{Port: viper.PortLocal},
			}, make([]byte, 500))
		})
		eng.Run()
		out = append(out, mcastResult{"reserved port", *n, lin.AB.Transmissions, sumTx(links)})
	}
	// 2: tree segment.
	{
		eng, src, _, _, lin, links, n := build()
		branches := [][]viper.Segment{}
		for p := uint8(2); p <= 4; p++ {
			branches = append(branches, []viper.Segment{{Port: p, Flags: viper.FlagVNT}, {Port: viper.PortLocal}})
		}
		tree, err := viper.TreeSegment(0, branches)
		if err == nil {
			eng.Schedule(0, func() {
				src.Send([]viper.Segment{{Port: 1, Flags: viper.FlagVNT}, tree}, make([]byte, 500))
			})
			eng.Run()
		}
		out = append(out, mcastResult{"tree segments", *n, lin.AB.Transmissions, sumTx(links)})
	}
	// 3: agent at leaf 1 (counts only the two other members to keep the
	// member count comparable we also deliver locally).
	{
		eng, src, _, leaves, lin, links, n := build()
		agentHost := leaves[0]
		ag := newAgentOn(eng, agentHost, n)
		// Members: itself (local loop not needed; count its own receipt),
		// plus leaves 2 and 3 via R.
		ag.add([]viper.Segment{{Port: 1, Flags: viper.FlagVNT}, {Port: 3, Flags: viper.FlagVNT}, {Port: viper.PortLocal}})
		ag.add([]viper.Segment{{Port: 1, Flags: viper.FlagVNT}, {Port: 4, Flags: viper.FlagVNT}, {Port: viper.PortLocal}})
		eng.Schedule(0, func() {
			src.Send([]viper.Segment{
				{Port: 1, Flags: viper.FlagVNT},
				{Port: 2, Flags: viper.FlagVNT},
				{Port: 7}, // agent endpoint
			}, make([]byte, 500))
		})
		eng.Run()
		out = append(out, mcastResult{"agent explosion", *n, lin.AB.Transmissions, sumTx(links)})
	}
	return out
}

// tiny agent shim (the multicast package provides the real Agent; this
// local copy counts the agent's own receipt as a member delivery).
type miniAgent struct {
	h       *router.Host
	members [][]viper.Segment
}

func newAgentOn(eng *sim.Engine, h *router.Host, n *int) *miniAgent {
	a := &miniAgent{h: h}
	h.Handle(7, func(d *router.Delivery) {
		*n++ // the agent's host is itself a member
		for _, m := range a.members {
			a.h.SendFrom(7, m, d.Data)
		}
	})
	return a
}

func (a *miniAgent) add(route []viper.Segment) { a.members = append(a.members, route) }

func sumTx(links []*netsim.P2PLink) uint64 {
	var s uint64
	for _, l := range links {
		s += l.AB.Transmissions
	}
	return s
}

// E12SelectiveRetx reproduces §4.3: packet groups with selective
// retransmission recover from loss, while IP fragmentation's
// all-or-nothing reassembly loses the whole datagram to any missing
// fragment.
func E12SelectiveRetx() *Table {
	t := &Table{
		ID:    "E12",
		Title: "Packet groups vs fragmentation under loss (§4.3)",
		Claim: "selective retransmission ... avoiding the all-or-nothing behavior of IP in the reassembly of packets",
		Columns: []string{
			"loss", "vmtp delivered", "vmtp retx pkts", "ip datagrams delivered (of 20)",
		},
	}
	okAll := true
	for _, loss := range []float64{0, 0.02, 0.05, 0.10} {
		vOK, retx := vmtpLossRun(loss)
		ipOK := ipLossRun(loss)
		t.AddRow(pct(loss), fmt.Sprintf("%v", vOK), fu(retx), fi(ipOK))
		if loss >= 0.05 && (!vOK || ipOK > 15) {
			okAll = false
		}
	}
	t.AddCheck("VMTP survives loss that kills IP reassembly", okAll, "see rows")
	return t
}

// vmtpLossRun sends one 32KB message (a full 32-packet group) over a
// lossy 2-router chain and
// reports success and retransmitted packets.
func vmtpLossRun(loss float64) (bool, uint64) {
	eng := sim.NewEngine(83 + int64(loss*1000))
	src := router.NewHost(eng, "src")
	dst := router.NewHost(eng, "dst")
	r1 := router.New(eng, "R1", router.Config{})
	r2 := router.New(eng, "R2", router.Config{})
	l1 := netsim.NewP2PLink(eng, linkRate, linkProp)
	pa, pb := l1.Attach(src, 1, r1, 1)
	src.AttachPort(pa)
	r1.AttachPort(pb)
	lm := netsim.NewP2PLink(eng, linkRate, linkProp)
	qa, qb := lm.Attach(r1, 2, r2, 1)
	r1.AttachPort(qa)
	r2.AttachPort(qb)
	lm.AB.SetLossRate(loss)
	l2 := netsim.NewP2PLink(eng, linkRate, linkProp)
	oa, ob := l2.Attach(r2, 2, dst, 1)
	r2.AttachPort(oa)
	dst.AttachPort(ob)

	ckA, ckB := clock.New(eng, 0, 0), clock.New(eng, 0, 0)
	client := vmtp.NewEndpoint(eng, src, ckA, 1, 1, vmtp.Config{BaseTimeout: 50 * sim.Millisecond, MaxRetries: 8, GapAckDelay: 5 * sim.Millisecond})
	server := vmtp.NewEndpoint(eng, dst, ckB, 2, 1, vmtp.Config{GapAckDelay: 5 * sim.Millisecond})
	server.SetHandler(func(from uint64, data []byte) []byte { return []byte("got it") })
	route := []viper.Segment{
		{Port: 1, Flags: viper.FlagVNT},
		{Port: 2, Flags: viper.FlagVNT},
		{Port: 2, Flags: viper.FlagVNT},
		{Port: 1},
	}
	ok := false
	eng.Schedule(0, func() {
		client.Call(server.ID(), [][]viper.Segment{route}, make([]byte, 32*1024), func(resp []byte, err error) {
			ok = err == nil
		})
	})
	eng.RunUntil(20 * sim.Second)
	return ok, client.Stats.Retransmissions + client.Stats.SelectiveResends
}

// ipLossRun sends 20 32KB datagrams over a lossy fragmenting path (MTU
// 1500, no transport retransmission) and counts deliveries.
func ipLossRun(loss float64) int {
	eng := sim.NewEngine(83 + int64(loss*1000))
	hA := ipnet.NewHost(eng, "hA", ipnet.MakeAddr(1, 1), ipnet.HostConfig{})
	hB := ipnet.NewHost(eng, "hB", ipnet.MakeAddr(2, 1), ipnet.HostConfig{ReassemblyTimeout: 500 * sim.Millisecond})
	r1 := ipnet.NewRouter(eng, "R1", ipnet.RouterConfig{QueueLimit: 64})
	r2 := ipnet.NewRouter(eng, "R2", ipnet.RouterConfig{QueueLimit: 64})
	mk := func(a, b netsim.Node, ap, bp uint8) (*netsim.Port, *netsim.Port, *netsim.P2PLink) {
		l := netsim.NewP2PLink(eng, linkRate, linkProp)
		pa, pb := l.Attach(a, ap, b, bp)
		return pa, pb, l
	}
	pa, pb, _ := mk(hA, r1, 1, 1)
	hA.AttachPort(pa)
	r1.AttachIface(pb, ipnet.MakeAddr(1, 254))
	hA.SetGateway(ipnet.MakeAddr(1, 254), ethernet.Addr{})
	qa, qb, trunk := mk(r1, r2, 2, 1)
	r1.AttachIface(qa, ipnet.MakeAddr(12, 1))
	r2.AttachIface(qb, ipnet.MakeAddr(12, 2))
	trunk.AB.SetMTU(1500)
	trunk.AB.SetLossRate(loss)
	oa, ob, _ := mk(r2, hB, 2, 1)
	r2.AttachIface(oa, ipnet.MakeAddr(2, 254))
	hB.AttachPort(ob)
	r1.AddStaticRoute(2, 2, ipnet.MakeAddr(12, 2), 2)
	r2.AddStaticRoute(1, 1, ipnet.MakeAddr(12, 1), 2)

	got := 0
	hB.SetHandler(func(src ipnet.Addr, proto uint8, data []byte) { got++ })
	for i := 0; i < 20; i++ {
		i := i
		eng.Schedule(sim.Time(i)*100*sim.Millisecond, func() {
			hA.Send(hB.Addr(), ipnet.ProtoRaw, make([]byte, 32*1024), 0)
		})
	}
	eng.RunUntil(10 * sim.Second)
	return got
}

// E13ReturnRoute checks the paper's central reversal claim on random
// internetworks: the trailer-constructed return route always reaches the
// original sender, over arbitrary mixes of Ethernet and point-to-point
// hops, with no routing knowledge at the responder.
func E13ReturnRoute() *Table {
	t := &Table{
		ID:    "E13",
		Title: "Trailer return routes on random topologies (§2)",
		Claim: "the reversal process is entirely network-independent; the receiver constructs the return route from the trailer alone",
		Columns: []string{
			"topology", "transactions", "replies received", "success",
		},
	}
	totalOK := true
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 5; trial++ {
		nRouters := 3 + r.Intn(5)
		tried, replied := randomTopologyPingAll(int64(trial), nRouters)
		ok := tried == replied && tried > 0
		if !ok {
			totalOK = false
		}
		t.AddRow(fmt.Sprintf("#%d (%d routers)", trial, nRouters), fi(tried), fi(replied), fmt.Sprintf("%v", ok))
	}
	t.AddCheck("every reply returned on every topology", totalOK, "see rows")
	return t
}

// randomTopologyPingAll builds a random connected internetwork and pings
// between every host pair, replying via the trailer return route.
func randomTopologyPingAll(seed int64, nRouters int) (tried, replied int) {
	n := core.New(1000 + seed)
	rng := rand.New(rand.NewSource(2000 + seed))

	for i := 0; i < nRouters; i++ {
		n.AddRouter(fmt.Sprintf("R%d", i), router.Config{})
	}
	// Ring backbone for connectivity, alternating p2p links and
	// Ethernets, plus random chords.
	port := make([]uint8, nRouters)
	for i := range port {
		port[i] = 1
	}
	nextPort := func(i int) uint8 { port[i]++; return port[i] }
	segID := 0
	connect := func(a, b int) {
		if rng.Intn(2) == 0 {
			n.Connect(fmt.Sprintf("R%d", a), nextPort(a), fmt.Sprintf("R%d", b), nextPort(b),
				linkRate, linkProp)
		} else {
			segID++
			name := fmt.Sprintf("seg%d", segID)
			n.AddEthernet(name, linkRate, 5*sim.Microsecond)
			n.Attach(fmt.Sprintf("R%d", a), name, nextPort(a))
			n.Attach(fmt.Sprintf("R%d", b), name, nextPort(b))
		}
	}
	for i := 0; i < nRouters; i++ {
		connect(i, (i+1)%nRouters)
	}
	for c := 0; c < nRouters/2; c++ {
		a, b := rng.Intn(nRouters), rng.Intn(nRouters)
		if a != b {
			connect(a, b)
		}
	}
	// One host LAN per router.
	nHosts := 0
	for i := 0; i < nRouters; i++ {
		segID++
		name := fmt.Sprintf("lan%d", segID)
		n.AddEthernet(name, linkRate, 5*sim.Microsecond)
		n.Attach(fmt.Sprintf("R%d", i), name, nextPort(i))
		h := fmt.Sprintf("h%d", i)
		n.AddHost(h)
		n.Attach(h, name, 1)
		nHosts++
	}
	// One handler per host serves both roles: replies to pings, counts
	// replies to its own pings.
	replies := 0
	for i := 0; i < nHosts; i++ {
		h := n.Host(fmt.Sprintf("h%d", i))
		h.Handle(0, func(d *router.Delivery) {
			if len(d.Data) > 0 && d.Data[0] == 'p' {
				h.Send(d.ReturnRoute, append([]byte("r"), d.Data[1:]...))
				return
			}
			replies++
		})
	}
	// Every host pings every other; replies ride the trailer.
	for i := 0; i < nHosts; i++ {
		for j := 0; j < nHosts; j++ {
			if i == j {
				continue
			}
			from, to := fmt.Sprintf("h%d", i), fmt.Sprintf("h%d", j)
			routes, err := n.Routes(directory.Query{From: from, To: to, Pref: directory.MinHops})
			if err != nil {
				continue
			}
			tried++
			src := n.Host(from)
			seg := routes[0].Segments
			ii := i
			n.Eng.Schedule(sim.Time(tried)*sim.Millisecond, func() {
				src.Send(seg, []byte{'p', byte(ii)})
			})
		}
	}
	n.RunUntil(10 * sim.Second)
	return tried, replies
}
