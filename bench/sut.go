package main

// sut.go is the benchmark's whole view of the program under test: every
// call into repro/internal/... is made from this file and no other file
// of the benchmark imports those packages. The surface is deliberately
// small and listed in bench/README.md — livenet.NewNetwork() with no
// options, NewRouter, NewHost, Connect(…, WithDepth), Send, Handle,
// NewSender, SetRawHandler, SetTokenAuthority, RequireToken, TokenCache,
// Stats, Stop; udpnet.Listen/Attach/WithRemote/Stats/Close;
// daemon.StartGateway and its methods; gateway.DialSocks; and the
// viper/token/dataplane/pool/vmtp functions the layer micro-timings
// name. Whatever NewNetwork() builds by default is what is measured: a
// later change that swaps the default dataplane must not need to edit
// this file.

import (
	"fmt"
	"net"
	"time"

	"repro/internal/daemon"
	"repro/internal/dataplane"
	"repro/internal/gateway"
	"repro/internal/livenet"
	"repro/internal/pool"
	"repro/internal/token"
	"repro/internal/udpnet"
	"repro/internal/viper"
	"repro/internal/vmtp"
)

// linkDepth is the depth of every link the benchmark wires itself. The
// credit windows (32 per flow) stay below it, so a closed loop does not
// overrun a link it built; links the program builds for itself (the
// tunnel's inner link, the gateway's chain) keep the program's depths.
const linkDepth = 64

// ---- packet topologies ----------------------------------------------

// pktFlow is one source→sink stream of a packet topology.
type pktFlow struct {
	src, dst *livenet.Host
	route    []viper.Segment
}

// send originates one packet through the full host path (encode, pooled
// buffer, first-hop enqueue).
func (f *pktFlow) send(payload []byte) error { return f.src.Send(f.route, payload) }

// handle installs the decoded delivery callback at the sink.
func (f *pktFlow) handle(fn func(data []byte)) {
	f.dst.Handle(0, func(d livenet.Delivery) { fn(d.Data) })
}

// prepared returns the prepared-injection send of the flow (wire image
// encoded once), for the network-only measurement.
func (f *pktFlow) prepared(payloadLen int) (func([]byte) error, error) {
	s, err := f.src.NewSender(f.route, payloadLen)
	if err != nil {
		return nil, err
	}
	return s.Send, nil
}

// handleRaw installs (fn != nil) or removes the pre-decode sink tap.
func (f *pktFlow) handleRaw(fn func(pkt []byte)) { f.dst.SetRawHandler(fn) }

// pktNet is a packet topology reduced to what the harness drives and
// the public counters it reads.
type pktNet struct {
	hops    int // routers each packet crosses
	flows   []*pktFlow
	nets    []*livenet.Network
	routers []*livenet.Router
	links   []*livenet.Link
	bridges []*udpnet.Bridge
	tunnels []*udpnet.Tunnel
}

// pktCounters is one read of a topology's public counters.
type pktCounters struct {
	forwarded    uint64 // Σ Router.Stats().Forwarded
	drops        uint64 // every publicly counted discard: routers, links, tunnels
	tunnelDrops  uint64 // Σ Tunnel.Stats().Dropped
	sendErrors   uint64 // Σ Tunnel.Stats().SendErrors
	encapsulated uint64 // Σ Tunnel.Stats().Encapsulated
	tokVerifies  uint64 // Σ Router.TokenCache().Metrics()
	tokHits      uint64
}

// drops is every publicly counted discard: Router.Stats().Drops,
// Link.Dropped() and Tunnel.Stats().{Dropped,SendErrors}. The credit
// window polls it, so it reads nothing else.
func (n *pktNet) drops() uint64 {
	var d uint64
	for _, r := range n.routers {
		d += r.Stats().TotalDrops()
	}
	for _, l := range n.links {
		d += l.Dropped()
	}
	for _, t := range n.tunnels {
		// Tunnel.Stats().Dropped already includes the tunnel's inner link.
		s := t.Stats()
		d += s.Dropped + s.SendErrors
	}
	return d
}

func (n *pktNet) counters() pktCounters {
	c := pktCounters{drops: n.drops()}
	for _, r := range n.routers {
		c.forwarded += r.Stats().Forwarded
		if tc := r.TokenCache(); tc != nil {
			v, h := tc.Metrics()
			c.tokVerifies += v
			c.tokHits += h
		}
	}
	for _, t := range n.tunnels {
		s := t.Stats()
		c.tunnelDrops += s.Dropped
		c.sendErrors += s.SendErrors
		c.encapsulated += s.Encapsulated
	}
	return c
}

func (n *pktNet) stop() {
	for _, b := range n.bridges {
		b.Close()
	}
	for _, nw := range n.nets {
		nw.Stop()
	}
}

// newChain is the fwd_min topology: src → r0 → … → r(hops-1) → dst on
// the default network, no tokens.
func newChain(hops int) (*pktNet, error) {
	nw := livenet.NewNetwork()
	n := &pktNet{hops: hops, nets: []*livenet.Network{nw}}
	for i := 0; i < hops; i++ {
		n.routers = append(n.routers, nw.NewRouter(fmt.Sprintf("r%d", i)))
	}
	src, dst := nw.NewHost("src"), nw.NewHost("dst")
	n.links = append(n.links, nw.Connect(src, 1, n.routers[0], 1, livenet.WithDepth(linkDepth)))
	for i := 1; i < hops; i++ {
		n.links = append(n.links, nw.Connect(n.routers[i-1], 2, n.routers[i], 1, livenet.WithDepth(linkDepth)))
	}
	n.links = append(n.links, nw.Connect(n.routers[hops-1], 2, dst, 1, livenet.WithDepth(linkDepth)))
	n.flows = []*pktFlow{{src: src, dst: dst, route: chainRoute(hops)}}
	return n, nil
}

// chainRoute is the fwd_min source route: the sender's own directive,
// one segment per router, local delivery.
func chainRoute(hops int) []viper.Segment {
	route := []viper.Segment{{Port: 1}}
	for i := 0; i < hops; i++ {
		route = append(route, viper.Segment{Port: 2, Flags: viper.FlagVNT})
	}
	return append(route, viper.Segment{Port: viper.PortLocal})
}

// tunnelFlows is how many flows share the tunnel_mtu trunk.
const tunnelFlows = 2

// tunnelDomainKey is the administrative-domain key both tunnel_mtu
// routers verify tokens against.
var tunnelDomainKey = []byte("bench-tunnel-domain")

// newTunnel is the tunnel_mtu topology: two token-guarded routers, each
// in its own network, joined by udpnet bridges over loopback UDP (or,
// for the in-process twin, by a direct Connect in one network).
//
//	src0 -1- rA -2- [trunk] -2- rB -3- dst0
//	src1 -3-'                   '-4- dst1
func newTunnel(overUDP bool) (*pktNet, error) {
	netA := livenet.NewNetwork()
	netB := netA
	n := &pktNet{hops: 2, nets: []*livenet.Network{netA}}
	if overUDP {
		netB = livenet.NewNetwork()
		n.nets = append(n.nets, netB)
	}
	rA, rB := netA.NewRouter("rA"), netB.NewRouter("rB")
	n.routers = []*livenet.Router{rA, rB}
	auth := token.NewAuthority(tunnelDomainKey)
	rA.SetTokenAuthority(auth)
	rB.SetTokenAuthority(auth)
	rA.RequireToken(2)
	trunkTok := auth.Issue(token.Spec{Account: 1, Port: 2, ReverseOK: true})
	for i := 0; i < tunnelFlows; i++ {
		inPort, outPort := uint8(1+2*i), uint8(3+i)
		src := netA.NewHost(fmt.Sprintf("src%d", i))
		dst := netB.NewHost(fmt.Sprintf("dst%d", i))
		n.links = append(n.links,
			netA.Connect(src, 1, rA, inPort, livenet.WithDepth(linkDepth)),
			netB.Connect(rB, outPort, dst, 1, livenet.WithDepth(linkDepth)))
		rB.RequireToken(outPort)
		n.flows = append(n.flows, &pktFlow{src: src, dst: dst, route: []viper.Segment{
			{Port: 1},
			{Port: 2, Flags: viper.FlagVNT, PortToken: trunkTok},
			{Port: outPort, Flags: viper.FlagVNT,
				PortToken: auth.Issue(token.Spec{Account: 1, Port: outPort, ReverseOK: true})},
			{Port: viper.PortLocal},
		}})
	}
	if !overUDP {
		n.links = append(n.links, netA.Connect(rA, 2, rB, 2, livenet.WithDepth(linkDepth)))
		return n, nil
	}
	for range n.nets {
		b, err := udpnet.Listen("127.0.0.1:0")
		if err != nil {
			n.stop()
			return nil, err
		}
		n.bridges = append(n.bridges, b)
	}
	for i, r := range n.routers {
		t, err := n.bridges[i].Attach(n.nets[i], r, 2, 7, udpnet.WithRemote(n.bridges[1-i].Addr()))
		if err != nil {
			n.stop()
			return nil, err
		}
		n.tunnels = append(n.tunnels, t)
	}
	return n, nil
}

// ---- gateway ----------------------------------------------------------

// gatewayHops is the router count of the gateway chain every gw_*
// workload runs on.
const gatewayHops = 4

// gwSUT is a running standalone SOCKS gateway with default settings.
type gwSUT struct{ gs *daemon.GatewayServer }

func startGateway() (*gwSUT, error) {
	gs, err := daemon.StartGateway(daemon.GatewayConfig{Hops: gatewayHops})
	if err != nil {
		return nil, err
	}
	return &gwSUT{gs: gs}, nil
}

// dial opens one SOCKS5 stream through the gateway to target.
func (g *gwSUT) dial(target string) (net.Conn, error) {
	return gateway.DialSocks(g.gs.Addr(), target)
}

// gwCounters is one read of the gateway's public counters, ingress and
// egress relays summed where the quantity is additive.
type gwCounters struct {
	activeIngress, activeEgress int
	streams                     uint64
	resets, openFailures        uint64
	socksErrors, dialErrors     uint64
	bytesIn, bytesOut           uint64
	groupsSent                  uint64
	rttP50us, rttP99us          int64 // ingress relay's group round trip
	callsStarted, callsFailed   uint64
	retx                        uint64 // Retransmissions + SelectiveResends
	acksSent, queueDrops        uint64
	billedPkts                  uint64 // Σ accounts of Bill()
}

func (g *gwSUT) counters() gwCounters {
	in, eg := g.gs.IngressStats(), g.gs.EgressStats()
	c := gwCounters{
		activeIngress: in.ActiveStreams,
		activeEgress:  eg.ActiveStreams,
		streams:       in.Streams,
		resets:        in.Resets + eg.Resets,
		openFailures:  in.OpenFailures,
		socksErrors:   in.SocksErrors,
		dialErrors:    eg.DialErrors,
		bytesIn:       in.BytesIn + eg.BytesIn,
		bytesOut:      in.BytesOut + eg.BytesOut,
		groupsSent:    in.GroupsSent + eg.GroupsSent,
		rttP50us:      in.GroupRTTp50us,
		rttP99us:      in.GroupRTTp99us,
		callsStarted:  in.VMTP.CallsStarted + eg.VMTP.CallsStarted,
		callsFailed:   in.VMTP.CallsFailed + eg.VMTP.CallsFailed,
		retx: in.VMTP.Retransmissions + in.VMTP.SelectiveResends +
			eg.VMTP.Retransmissions + eg.VMTP.SelectiveResends,
		acksSent:   in.VMTP.AcksSent + eg.VMTP.AcksSent,
		queueDrops: in.VMTP.QueueDrops + eg.VMTP.QueueDrops,
	}
	for _, e := range g.gs.Bill() {
		c.billedPkts += e.Packets
	}
	return c
}

// bill times one ledger sweep.
func (g *gwSUT) bill() time.Duration {
	t0 := time.Now()
	g.gs.Bill()
	return time.Since(t0)
}

func (g *gwSUT) reconcile() []string { return g.gs.Reconcile() }
func (g *gwSUT) close()              { g.gs.Close() }

// vmtpGroupBytes is the largest message one VMTP packet group carries.
const vmtpGroupBytes = vmtp.MaxGroupPackets * vmtp.MaxPacketData

// rtPair is two real-time VMTP endpoints joined by an in-memory carrier
// — the transport alone, no mesh under it.
type rtPair struct {
	client, server *vmtp.RT
	route          []viper.Segment
}

func newRTPair() *rtPair {
	p := &rtPair{route: []viper.Segment{{Port: 1}}}
	// Deliver decodes (and so copies) before queueing, so handing it the
	// sender's bytes directly is within its contract.
	p.client = vmtp.NewRT(1, vmtp.CarrierFunc(func(_ []viper.Segment, pkt []byte) error {
		p.server.Deliver(pkt, p.route)
		return nil
	}), vmtp.RTConfig{})
	p.server = vmtp.NewRT(2, vmtp.CarrierFunc(func(_ []viper.Segment, pkt []byte) error {
		p.client.Deliver(pkt, p.route)
		return nil
	}), vmtp.RTConfig{})
	// Small requests are echoed (the gw_rr shape); group-sized ones get
	// a one-byte reply (the gw_upload shape).
	p.server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		if len(data) > 1024 {
			return data[:1]
		}
		return data
	})
	return p
}

func (p *rtPair) call(data []byte) ([]byte, error) { return p.client.Call(2, p.route, data) }
func (p *rtPair) close()                           { p.client.Close(); p.server.Close() }

// ---- layer micro-timings ------------------------------------------------

// microOp is one layer's public function called on the inputs a
// workload sends. per is how many units one fn call processes.
type microOp struct {
	metric string
	fn     func()
	per    int
}

// microFixture holds the layer micro-timings and the static facts read
// off the same packets.
type microFixture struct {
	ops           []microOp
	hop           func() // decide + trailer surgery: the hop kernel, for hop_allocs
	encode        func() // viper.Packet.Encode, for encode_allocs
	overheadBytes int    // header + trailer bytes of a tunnel_mtu packet at delivery
}

// hopStep applies one router's byte surgery to pkt arriving on inPort,
// as the forwarding path does, and returns the packet as transmitted.
func hopStep(pkt []byte, inPort uint8) ([]byte, error) {
	seg, rest, err := dataplane.DecodeHop(pkt)
	if err != nil {
		return nil, err
	}
	ret := viper.Segment{Port: inPort, Priority: seg.Priority, PortToken: seg.PortToken}
	buf := make([]byte, len(rest), len(rest)+64+len(seg.PortToken))
	copy(buf, rest)
	return dataplane.AppendTrailerSegment(buf, &ret)
}

// originImage encodes the packet a host originates for route (own
// directive first) — the wire image Host.Send builds.
func originImage(route []viper.Segment, payload []byte) (*viper.Packet, []byte, error) {
	carried := make([]viper.Segment, len(route)-1)
	copy(carried, route[1:])
	if err := viper.SealRoute(carried); err != nil {
		return nil, nil, err
	}
	p := &viper.Packet{Route: carried, Data: payload, Trailer: []viper.Segment{{Port: viper.PortLocal}}}
	b, err := p.Encode()
	return p, b, err
}

func newMicroFixture(minPayload, mtuPayload []byte) (*microFixture, error) {
	fx := &microFixture{}

	// The exact fwd_min packet, as originated and as delivered.
	minPkt, minWire, err := originImage(chainRoute(4), minPayload)
	if err != nil {
		return nil, err
	}
	delivered := minWire
	for i := 0; i < 4; i++ {
		if delivered, err = hopStep(delivered, 1); err != nil {
			return nil, err
		}
	}
	if _, err := viper.Decode(delivered); err != nil {
		return nil, fmt.Errorf("delivered fwd_min image does not decode: %w", err)
	}

	// The tunnel_mtu packet: two tokened segments.
	auth := token.NewAuthority(tunnelDomainKey)
	tok := auth.Issue(token.Spec{Account: 1, Port: 2, ReverseOK: true})
	mtuRoute := []viper.Segment{
		{Port: 1},
		{Port: 2, PortToken: tok},
		{Port: 3, PortToken: auth.Issue(token.Spec{Account: 1, Port: 3, ReverseOK: true})},
		{Port: viper.PortLocal},
	}
	_, mtuWire, err := originImage(mtuRoute, mtuPayload)
	if err != nil {
		return nil, err
	}
	mtuDelivered := mtuWire
	for _, in := range []uint8{1, 2} {
		if mtuDelivered, err = hopStep(mtuDelivered, in); err != nil {
			return nil, err
		}
	}
	fx.overheadBytes = len(mtuDelivered) - len(mtuPayload)

	cache := token.NewCache(auth)
	if cache.Install(tok, 2, 0, uint64(len(mtuWire)), 0, false) != token.Allowed {
		return nil, fmt.Errorf("token fixture not allowed")
	}
	ts := (*dataplane.TokenState)(nil).WithAuthority(auth).WithRequired(2)
	if !ts.Prime(tok) {
		return nil, fmt.Errorf("token fixture did not verify")
	}

	plane := &dataplane.Pipeline{} // zero Hooks
	decide := func(wire []byte, ts *dataplane.TokenState) (viper.Segment, []byte) {
		seg, rest, err := dataplane.DecodeHop(wire)
		if err != nil {
			panic(err) // fixture bytes were decoded above
		}
		in := dataplane.HopInput{InPort: 1, Seg: &seg, ChargeBytes: uint64(len(wire))}
		if v := plane.Decide(ts, &in); v.Action != dataplane.ActionForward {
			panic(fmt.Sprintf("fixture verdict %v", v.Action))
		}
		return seg, rest
	}

	// Trailer surgery runs in place on a buffer with headroom; each call
	// first restores the 4-byte descriptor the previous call rewrote.
	_, rest := decide(minWire, nil)
	surgery := make([]byte, len(rest), len(rest)+64)
	copy(surgery, rest)
	var desc [4]byte
	copy(desc[:], rest[len(rest)-4:])
	ret := viper.Segment{Port: 1}
	trailer := func() {
		copy(surgery[len(surgery)-4:], desc[:])
		if _, err := dataplane.AppendTrailerSegment(surgery, &ret); err != nil {
			panic(err)
		}
	}

	const batchN = 64
	batch := make([]dataplane.BatchFrame, batchN)
	for i := range batch {
		batch[i] = dataplane.BatchFrame{InPort: 1, ChargeBytes: uint64(len(minWire)), Pkt: minWire}
	}
	var bs dataplane.BatchStats

	group := make([]byte, vmtpGroupBytes)
	vp := &vmtp.Packet{Header: vmtp.Header{Client: 1, Server: 2, Txn: 1, NPkts: 32, TotalLen: vmtpGroupBytes},
		Data: mtuPayload}
	vpWire := vp.Encode()

	fx.encode = func() {
		if _, err := minPkt.Encode(); err != nil {
			panic(err)
		}
	}
	fx.hop = func() { decide(minWire, nil); trailer() }
	fx.ops = []microOp{
		{"viper.encode_ns", fx.encode, 1},
		{"viper.decode_ns", func() {
			if _, err := viper.Decode(delivered); err != nil {
				panic(err)
			}
		}, 1},
		{"token.check_cached_ns", func() {
			if cache.Check(tok, 2, 0, uint64(len(mtuWire)), 0, false) != token.Allowed {
				panic("cached token denied")
			}
		}, 1},
		{"token.verify_cold_ns", func() {
			if _, err := auth.Verify(tok); err != nil {
				panic(err)
			}
		}, 1},
		{"dataplane.decide_ns", func() { decide(minWire, nil) }, 1},
		{"dataplane.decide_tok_ns", func() { decide(mtuWire, ts) }, 1},
		{"dataplane.decide_batch_ns", func() { plane.DecideBatch(nil, batch, &bs) }, batchN},
		{"dataplane.trailer_ns", trailer, 1},
		{"pool.getput_ns", func() { pool.Put(pool.Get(len(minWire) + 64)) }, 1},
		{"vmtp.segment_ns", func() {
			if _, err := vmtp.Segment(group, vmtp.MaxPacketData); err != nil {
				panic(err)
			}
		}, 1},
		{"vmtp.encode_ns", func() { vp.Encode() }, 1},
		{"vmtp.decode_ns", func() {
			if _, err := vmtp.Decode(vpWire); err != nil {
				panic(err)
			}
		}, 1},
	}
	return fx, nil
}

// poolCounters reads the buffer pool's lifetime gets and hits.
func poolCounters() (gets, hits uint64) {
	g, h, _, _ := pool.Stats()
	return g, h
}
