// Package router implements the Sirpent router of §2 of the paper: a
// source-routed switch that strips the leading header segment of each
// packet, authorizes it against a cached port token, appends the reversed
// segment to the packet trailer, and forwards the remainder with
// cut-through switching. Blocked packets are queued by priority, dropped
// if they ask for it, or preempt lower-priority traffic in transmission.
// Output ports run the paper's rate-based congestion control, pushing
// rate-limit signals to the upstream routers identified from the source
// routes of queued packets (§2.2).
package router

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/dataplane"
	"repro/internal/ethernet"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/viper"
)

// Config parameterizes a router.
type Config struct {
	// DecisionTime is the switch decision and setup time. The paper
	// argues this "can be made significantly less than a microsecond"
	// (§2.1); the default is 500ns.
	DecisionTime sim.Time
	// TokenVerifyTime is the latency of a full (uncached) token
	// verification — the "difficult to fully decrypt and check in real
	// time" cost that motivates the token cache (§2.2). Default 100µs.
	TokenVerifyTime sim.Time
	// TokenMode selects how packets with uncached tokens are handled.
	TokenMode token.Mode
	// QueueLimit bounds each output queue in packets; 0 means 64.
	QueueLimit int
	// RateControl enables the §2.2 congestion control; nil disables it.
	RateControl *RateControlConfig
	// DelayLine, when nonzero, enables §2.1's third blocked-packet
	// option: instead of dropping when the output queue is full, the
	// packet enters "a local delay line to store the packet for some
	// period of time" (a Blazenet-style optical loop) and re-contends
	// after that delay. DelayLineCap bounds how many packets circulate.
	DelayLine    sim.Time
	DelayLineCap int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.DecisionTime == 0 {
		out.DecisionTime = 500 * sim.Nanosecond
	}
	if out.TokenVerifyTime == 0 {
		out.TokenVerifyTime = 100 * sim.Microsecond
	}
	if out.QueueLimit == 0 {
		out.QueueLimit = 64
	}
	if out.DelayLine > 0 && out.DelayLineCap == 0 {
		out.DelayLineCap = 32
	}
	return out
}

// DropReason classifies discarded packets. It is the shared bucket set of
// stats.DropReason, so the netsim and livenet forwarding planes account
// drops on one surface.
type DropReason = stats.DropReason

const (
	DropNoSegment   = stats.DropNoSegment   // route exhausted at a router
	DropBadPort     = stats.DropBadPort     // segment names an unattached port
	DropIfBlocked   = stats.DropIfBlocked   // DIB packet found its port busy
	DropQueueFull   = stats.DropQueueFull   // output queue at limit
	DropTokenDenied = stats.DropTokenDenied // token invalid, exhausted or absent
	DropAborted     = stats.DropAborted     // inbound transmission was preempted
	DropOversize    = stats.DropOversize    // cannot fit next hop even when empty
	DropTxError     = stats.DropTxError     // medium refused the frame
	DropNotSirpent  = stats.DropNotSirpent  // payload is not a VIPER packet
	DropLinkDown    = stats.DropLinkDown    // primary port down, no live alternate
)

// vpkt extracts the VIPER packet from an arrival; Arrive has already
// verified the payload type.
func vpkt(arr *netsim.Arrival) *viper.Packet { return arr.Pkt.(*viper.Packet) }

// Stats aggregates a router's observable behavior. The embedded
// stats.Counters carries the substrate-independent surface (Forwarded,
// Local, per-reason Drops) that the conformance harness diffs against the
// livenet realization; the remaining fields are event-driven detail only
// the simulator can observe.
type Stats struct {
	stats.Counters
	Arrivals     uint64
	CutThrough   uint64 // forwarded with cut-through at decision time
	StoreForward uint64 // forwarded after buffering
	Preemptions  uint64 // lower-priority transmissions aborted
	Truncations  uint64
	DelayLoops   uint64 // trips through the blocked-packet delay line (§2.1)
	// ForwardDelay samples leading-edge arrival to onward transmission
	// start, in nanoseconds — the per-hop delay the paper's §6.1
	// analyzes.
	ForwardDelay stats.Sample
	// QueueDelay samples time spent in an output queue, in nanoseconds.
	QueueDelay stats.Sample
}

// LocalHandler receives packets addressed to the router itself (port 0).
// The packet has had its head consumed; its trailer yields the return
// route.
type LocalHandler func(pkt *viper.Packet, arr *netsim.Arrival)

// Router is a Sirpent switch. It implements netsim.Node.
type Router struct {
	eng  *sim.Engine
	name string
	cfg  Config

	ports  map[uint8]*outPort
	groups map[uint8][]uint8 // logical port -> physical members
	mcast  map[uint8][]uint8 // multicast port -> fanout members

	// plane is the shared hop-decision kernel (internal/dataplane); tok
	// is its token configuration, replaced wholesale on change (the
	// simulator is single-threaded, so a plain field suffices where
	// livenet needs an atomic pointer).
	plane dataplane.Pipeline
	tok   *dataplane.TokenState

	local LocalHandler

	// flight, when set, records anomalous events (drops, preemptions,
	// rate-limit impositions) into a bounded ring. nil disables it; every
	// recording site is behind a nil check.
	flight *ledger.FlightRecorder

	// rate tallies the congestion controller's activity for telemetry.
	rate ledger.CongestionCounters
	// gateDwell samples how long rate-gated frames sat in an output
	// queue before the limit released them, in nanoseconds.
	gateDwell stats.Accumulator

	Stats Stats
}

// New creates a router.
func New(eng *sim.Engine, name string, cfg Config) *Router {
	r := &Router{
		eng:    eng,
		name:   name,
		cfg:    cfg.withDefaults(),
		ports:  make(map[uint8]*outPort),
		groups: make(map[uint8][]uint8),
		mcast:  make(map[uint8][]uint8),
	}
	r.plane = dataplane.Pipeline{
		Node:  name,
		Clock: clock.SimSource(eng),
		Mode:  r.cfg.TokenMode,
		Hooks: dataplane.Hooks{
			CountDrop:            func(reason stats.DropReason, n uint64) { r.Stats.Drops[reason] += n },
			CountLocal:           func(n uint64) { r.Stats.Local += n },
			CountTokenAuthorized: func(n uint64) { r.Stats.TokenAuthorized += n },
			Flight:               func() *ledger.FlightRecorder { return r.flight },
			PortUp: func(port uint8) bool {
				op, ok := r.ports[port]
				return ok && !op.port.Medium.IsDown()
			},
		},
	}
	return r
}

// Name implements netsim.Node.
func (r *Router) Name() string { return r.name }

// AttachPort registers a port created by a link/segment attach call. The
// port must belong to this router.
func (r *Router) AttachPort(p *netsim.Port) {
	if p.Node != netsim.Node(r) {
		panic(fmt.Sprintf("router %s: port %v belongs to another node", r.name, p))
	}
	if p.ID == viper.PortLocal {
		panic("router: port 0 is reserved for local delivery")
	}
	r.ports[p.ID] = newOutPort(r, p)
}

// Port returns the output port state for an ID, for tests and experiment
// harnesses.
func (r *Router) Port(id uint8) (*netsim.Port, bool) {
	op, ok := r.ports[id]
	if !ok {
		return nil, false
	}
	return op.port, true
}

// QueueLen reports the current output queue length on a port.
func (r *Router) QueueLen(id uint8) int {
	if op, ok := r.ports[id]; ok {
		return op.queue.Len()
	}
	return 0
}

// SetLocalHandler registers the consumer of locally addressed packets.
func (r *Router) SetLocalHandler(h LocalHandler) { r.local = h }

// SetTokenAuthority installs the administrative domain key this router
// verifies tokens against, enabling token checking.
func (r *Router) SetTokenAuthority(a *token.Authority) {
	r.tok = r.tok.WithAuthority(a)
}

// TokenCache exposes the router's token cache (accounting inspection).
func (r *Router) TokenCache() *token.Cache { return r.tok.Cache() }

// RequireToken makes packets without a valid token for the given output
// port be denied rather than forwarded.
func (r *Router) RequireToken(port uint8) { r.tok = r.tok.WithRequired(port) }

// SetFlightRecorder installs the anomaly ring buffer the router records
// drops, preemptions, and rate-limit impositions into. nil disables
// recording (the default).
func (r *Router) SetFlightRecorder(fr *ledger.FlightRecorder) { r.flight = fr }

// recordAnomaly appends an event to the flight recorder, stamping the
// router's identity and the current virtual time.
func (r *Router) recordAnomaly(ev ledger.Event) {
	ev.Node = r.name
	ev.At = int64(r.eng.Now())
	r.flight.Record(ev)
}

// SetLogicalGroup declares a logical port backed by several physical
// ports: "a very high speed physical link ... might be statically divided
// into 10 1 gigabit channels with all 10 links being treated as one
// logical link. A packet arriving for this logical link would be routed
// to whichever of the channels was free" (§2.2).
func (r *Router) SetLogicalGroup(logical uint8, members []uint8) {
	for _, m := range members {
		if _, ok := r.ports[m]; !ok {
			panic(fmt.Sprintf("router %s: logical group member port %d not attached", r.name, m))
		}
	}
	r.groups[logical] = append([]uint8(nil), members...)
}

// SetMulticastGroup reserves a port value to mean "forward a copy on each
// member port" (§2's first multicast mechanism).
func (r *Router) SetMulticastGroup(port uint8, members []uint8) {
	for _, m := range members {
		if _, ok := r.ports[m]; !ok {
			panic(fmt.Sprintf("router %s: multicast member port %d not attached", r.name, m))
		}
	}
	r.mcast[port] = append([]uint8(nil), members...)
}

// Reboot models a router crash and restart: all soft state — queued
// packets, token-cache verdicts, rate-limit state — is discarded. The
// paper's design makes this safe: tokens re-verify on demand ("as soft
// cached state, it can be discarded", §2.2), rate limits rebuild from
// fresh congestion signals, and transports retransmit lost packets.
func (r *Router) Reboot() {
	if c := r.tok.Cache(); c != nil {
		c.Flush()
	}
	for _, op := range r.ports {
		op.queue = pktQueue{}
		op.limits = make(map[uint8]*rateLimit)
		if op.ctl != nil {
			op.ctl.running = false
		}
	}
}

// dropArr accounts a drop through the dataplane hooks (counter, flight
// event, trace terminal hop — the untraced path stays at one pointer
// test per sink, the nil-Tracer zero-overhead contract).
func (r *Router) dropArr(reason DropReason, arr *netsim.Arrival) {
	r.plane.Drop(reason, arr.In.ID, 0, arr.Tx.Trace, int64(arr.Start))
}

// dropVerdict is dropArr with the dataplane's account attribution for
// token denials against a verified token.
func (r *Router) dropVerdict(v dataplane.Verdict, arr *netsim.Arrival) {
	r.plane.Drop(v.Reason, arr.In.ID, v.Account, arr.Tx.Trace, int64(arr.Start))
}

// dropFrame is dropArr for packets past makeFrame: the record rides on
// the frame (the arrival may already be history for queued packets).
func (r *Router) dropFrame(reason DropReason, f *frame) {
	r.plane.Drop(reason, f.in, 0, f.tr, int64(f.arrived))
}

// closeFanoutTrace ends a traced packet's record at a multicast fanout
// router: the branch copies share the parent's Transmission, so tracing
// them onto one record would interleave independent sub-paths. The
// record closes with a forward hop naming the multicast/tree port, and
// the branches continue untraced.
func (r *Router) closeFanoutTrace(arr *netsim.Arrival, seg viper.Segment) {
	r.plane.CloseFanout(arr.Tx.Trace, arr.In.ID, seg.Port, int64(arr.Start))
	arr.Tx.Trace = nil
}

// Arrive implements netsim.Node: the leading edge of a packet has reached
// the router. The switching decision fires once the first header segment
// (and the network header preceding it) has been clocked in, plus the
// switch decision time (§2.1: "Placing the port field first allows the
// router to make the switching decision while the typeOfService, portToken
// and portInfo fields are being received" — we conservatively charge the
// full first segment).
func (r *Router) Arrive(arr *netsim.Arrival) {
	r.Stats.Arrivals++
	pkt, ok := arr.Pkt.(*viper.Packet)
	if !ok {
		r.dropArr(DropNotSirpent, arr)
		return
	}
	seg := pkt.Current()
	if seg == nil {
		r.dropArr(DropNoSegment, arr)
		return
	}
	hdrBytes := seg.WireLen()
	if arr.Hdr != nil {
		hdrBytes += ethernet.HeaderLen
	}
	decisionDelay := netsim.TxTime(hdrBytes, arr.In.Medium.RateBps()) + r.cfg.DecisionTime
	r.eng.Schedule(decisionDelay, func() { r.decide(arr) })
}

// decide runs the shared dataplane decision stage — token authorization
// and the three-way action of §2.1 — then realizes the verdict on the
// simulated substrate.
func (r *Router) decide(arr *netsim.Arrival) {
	if arr.Tx.Aborted() {
		r.dropArr(DropAborted, arr)
		return
	}
	r.decideDepth(arr, 0)
}

// decideDepth is decide's body, re-entered (depth+1) after a failover
// replaced the remaining route with a DAG alternate. The depth cap
// stops a crafted alternate whose head is itself a dead-primary DAG
// segment from cycling the decision stage forever.
func (r *Router) decideDepth(arr *netsim.Arrival, depth int) {
	seg := *vpkt(arr).Current()
	in := dataplane.HopInput{
		InPort:      arr.In.ID,
		Seg:         &seg,
		ChargeBytes: uint64(netsim.FrameSize(arr.Pkt, arr.Hdr)),
	}
	switch v := r.plane.Decide(r.tok, &in); v.Action {
	case dataplane.ActionDrop:
		r.dropVerdict(v, arr)
	case dataplane.ActionAwaitToken:
		r.verifyToken(arr, seg, in.ChargeBytes)
	case dataplane.ActionFailover:
		r.failover(arr, v, depth)
	default:
		r.dispatch(arr, seg)
	}
}

// failover realizes an ActionFailover verdict: record the diversion,
// replace the packet's remaining route with the chosen branch (the
// branch head executes here, carrying its own token), and re-enter the
// decision stage on it.
func (r *Router) failover(arr *netsim.Arrival, v dataplane.Verdict, depth int) {
	if depth >= dataplane.MaxFailoverDepth {
		r.dropArr(DropLinkDown, arr)
		return
	}
	pkt := vpkt(arr)
	alt := v.AltRoute
	// Seal so the installed route carries the same continuation flags the
	// wire substrate's in-place splice produces — the differential suite
	// compares trailers byte for byte.
	if err := viper.SealRoute(alt); err != nil {
		r.dropArr(DropBadPort, arr)
		return
	}
	r.plane.Failover(arr.In.ID, pkt.Current().Port, v.OutPort, v.AltRank, arr.Tx.Trace, int64(arr.Start))
	pkt.Route = alt
	r.decideDepth(arr, depth+1)
}

// verifyToken applies the configured uncached-token mode (§2.2) on the
// simulator's clock: the full verification completes TokenVerifyTime
// later — the "difficult to fully decrypt and check in real time" cost
// the token cache amortizes — and the dataplane's InstallToken books
// the verdict and the charge.
func (r *Router) verifyToken(arr *netsim.Arrival, seg viper.Segment, size uint64) {
	segCopy := seg.Clone() // the closures outlive the packet's head
	switch r.cfg.TokenMode {
	case token.Optimistic:
		// Let this packet through; verify in the background so the
		// cached verdict governs the next one. The charge is booked only
		// if the token proves valid, so the returned verdict is ignored.
		r.eng.Schedule(r.cfg.TokenVerifyTime, func() {
			in := dataplane.HopInput{InPort: arr.In.ID, Seg: &segCopy, ChargeBytes: size}
			r.plane.InstallToken(r.tok, &in)
		})
		r.dispatch(arr, seg)
	case token.Block:
		// Hold the packet as if its port were busy until the
		// verification completes (§2.2).
		r.eng.Schedule(r.cfg.TokenVerifyTime, func() {
			in := dataplane.HopInput{InPort: arr.In.ID, Seg: &segCopy, ChargeBytes: size}
			if v := r.plane.InstallToken(r.tok, &in); v.Action == dataplane.ActionDrop {
				r.dropVerdict(v, arr)
				return
			}
			r.dispatch(arr, seg)
		})
	case token.Drop:
		r.dropArr(DropTokenDenied, arr)
		// Still verify and cache so later packets are served; Prime
		// charges nothing — the dropped packet is never billed.
		r.eng.Schedule(r.cfg.TokenVerifyTime, func() {
			r.tok.Prime(segCopy.PortToken)
		})
	}
}

// dispatch realizes the classification verdict for an authorized packet
// on the simulated substrate, resolving the netsim-only port extensions
// (multicast fanout sets, §2.2 logical groups) that sit between the
// shared ActionForward verdict and an actual output port.
func (r *Router) dispatch(arr *netsim.Arrival, seg viper.Segment) {
	switch v := dataplane.Classify(&seg); v.Action {
	case dataplane.ActionTree:
		// Tree-structured multicast (§2's second mechanism): fan one
		// copy down each branch sub-route.
		branches, err := viper.DecodeTree(seg.PortInfo)
		if err != nil {
			r.dropArr(DropBadPort, arr)
			return
		}
		r.closeFanoutTrace(arr, seg)
		pkt := vpkt(arr)
		for _, br := range branches {
			copyArr := *arr
			cp := pkt.Clone()
			cp.Route = append(cloneRoute(br), cp.Route[1:]...)
			copyArr.Pkt = cp
			r.dispatch(&copyArr, cp.Route[0])
		}
	case dataplane.ActionLocal:
		r.deliverLocal(arr)
	default:
		// Multicast fanout (reserved multi-port values, §2).
		if members, ok := r.mcast[v.OutPort]; ok {
			r.fanout(arr, seg, members)
			return
		}
		// Logical port group (§2.2 load balancing).
		if members, ok := r.groups[v.OutPort]; ok && len(members) > 0 {
			r.forwardGroup(arr, seg, members)
			return
		}
		op, ok := r.ports[v.OutPort]
		if !ok {
			r.dropArr(DropBadPort, arr)
			return
		}
		f, ok := r.makeFrame(arr, seg, op)
		if !ok {
			return
		}
		op.forward(arr, f)
	}
}

// forwardGroup routes a packet over a logical port: "A packet arriving
// for this logical link would be routed to whichever of the channels was
// free" (§2.2). Member selection is deferred to transmission time so
// back-to-back packets spread across the group instead of early-binding
// to one member.
func (r *Router) forwardGroup(arr *netsim.Arrival, seg viper.Segment, members []uint8) {
	now := r.eng.Now()
	inRate := arr.In.Medium.RateBps()
	// Immediate cut-through if a member is free at rate.
	for _, m := range members {
		op, ok := r.ports[m]
		if !ok {
			continue
		}
		med := op.port.Medium
		if med.FreeAt(now) <= now && med.RateBps() == inRate {
			f, ok := r.makeFrame(arr, seg, op)
			if !ok {
				return
			}
			op.forward(arr, f)
			return
		}
	}
	// Otherwise store the packet, then bind it to the least-loaded
	// member once fully received.
	r.eng.Schedule(arr.End()-now, func() {
		if arr.Tx.Aborted() {
			r.dropArr(DropAborted, arr)
			return
		}
		op := r.pickGroupMember(members)
		if op == nil {
			r.dropArr(DropBadPort, arr)
			return
		}
		f, ok := r.makeFrame(arr, seg, op)
		if !ok {
			return
		}
		if dibFlag(f) && op.port.Medium.FreeAt(r.eng.Now()) > r.eng.Now() {
			r.dropFrame(DropIfBlocked, f)
			return
		}
		op.enqueue(&queued{
			frame:    f,
			upstream: arr.Tx.From,
			prio:     f.prio,
			enqueued: r.eng.Now(),
		}, arr)
	})
}

// pickGroupMember prefers a free member; among busy members it picks the
// one with the shortest queue, tie-broken by earliest free time.
func (r *Router) pickGroupMember(members []uint8) *outPort {
	now := r.eng.Now()
	var best *outPort
	bestQ := 1 << 30
	bestFree := sim.Time(1 << 62)
	for _, m := range members {
		op, ok := r.ports[m]
		if !ok {
			continue
		}
		free := op.port.Medium.FreeAt(now)
		if free <= now && op.queue.Len() == 0 {
			return op
		}
		if op.queue.Len() < bestQ || (op.queue.Len() == bestQ && free < bestFree) {
			best, bestQ, bestFree = op, op.queue.Len(), free
		}
	}
	return best
}

// makeFrame consumes the packet head, appends the return segment, and
// resolves next-hop framing, handling oversize truncation (§2: Sirpent
// does not fragment; it truncates and marks the trailer).
func (r *Router) makeFrame(arr *netsim.Arrival, seg viper.Segment, op *outPort) (*frame, bool) {
	vpkt(arr).ConsumeHead(r.returnSegment(arr, seg))

	// A DAG segment's PortInfo is the alternate blob; the primary port's
	// network header travels embedded inside it.
	info := seg.PortInfo
	if viper.IsDAGSegment(&seg) {
		pi, ok := viper.DAGPrimaryInfo(&seg)
		if !ok {
			r.dropArr(DropBadPort, arr)
			return nil, false
		}
		info = pi
	}
	var hdr *ethernet.Header
	if len(info) > 0 {
		h, err := ethernet.Decode(info)
		if err != nil {
			r.dropArr(DropBadPort, arr)
			return nil, false
		}
		hdr = &h
	}
	f := &frame{
		pkt: vpkt(arr), hdr: hdr, prio: seg.Priority,
		tr: arr.Tx.Trace, arrived: arr.Start, in: arr.In.ID,
	}

	if mtu := op.port.Medium.MTU(); mtu > 0 {
		over := netsim.FrameSize(f.pkt, f.hdr) - mtu
		if over > 0 {
			if over > len(f.pkt.Data) {
				r.dropArr(DropOversize, arr)
				return nil, false
			}
			f.pkt.Data = f.pkt.Data[:len(f.pkt.Data)-over]
			f.pkt.Truncated = true
			r.Stats.Truncations++
		}
	}
	return f, true
}

// returnSegment constructs the trailer segment that makes this hop
// reversible (§2, §2.2). The reversal policy — arrival port, swapped
// header, token iff it authorizes the reverse route — is the dataplane's;
// this substrate contributes the decoded-header swap and asks for a
// token copy because the trailer outlives the arrival. The verdict is
// not carried to this stage (tree branches and deferred verifications
// reach it on their own paths), so the dataplane asks the cache.
func (r *Router) returnSegment(arr *netsim.Arrival, seg viper.Segment) viper.Segment {
	var portInfo []byte
	if arr.Hdr != nil {
		portInfo = arr.Hdr.Swapped().Encode()
	}
	var ret viper.Segment
	dataplane.ReturnSegment(&ret, arr.In.ID, &seg, portInfo, dataplane.ReverseUnknown, r.tok.Cache(), true)
	return ret
}

func (r *Router) fanout(arr *netsim.Arrival, seg viper.Segment, members []uint8) {
	r.closeFanoutTrace(arr, seg)
	for _, m := range members {
		op, ok := r.ports[m]
		if !ok {
			continue
		}
		// Each copy gets its own packet so downstream consumption does
		// not interfere.
		copyArr := *arr
		copyArr.Pkt = vpkt(arr).Clone()
		f, ok := r.makeFrame(&copyArr, seg, op)
		if !ok {
			continue
		}
		op.forward(&copyArr, f)
	}
}

// deliverLocal hands the packet to the router's own stack once the
// trailing edge has arrived.
func (r *Router) deliverLocal(arr *netsim.Arrival) {
	wait := arr.End() - r.eng.Now()
	r.eng.Schedule(wait, func() {
		if arr.Tx.Aborted() {
			r.dropArr(DropAborted, arr)
			return
		}
		seg := *vpkt(arr).Current()
		vpkt(arr).ConsumeHead(r.returnSegment(arr, seg))
		r.plane.Local(arr.In.ID, arr.Tx.Trace, int64(arr.Start))
		if r.local != nil {
			r.local(vpkt(arr), arr)
		}
	})
}
