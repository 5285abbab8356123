package router

import (
	"errors"
	"fmt"

	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/viper"
)

// Delivery is a packet handed up from a host's Sirpent layer. The return
// route is already constructed from the trailer, so replying requires no
// routing knowledge (§2).
type Delivery struct {
	Pkt         *viper.Packet
	Data        []byte
	ReturnRoute []viper.Segment
	Hdr         *ethernet.Header
	Endpoint    uint8
	At          sim.Time
	Truncated   bool
}

// DeliveryHandler consumes packets addressed to a host endpoint.
type DeliveryHandler func(d *Delivery)

// HostStats counts a host's externally visible events.
type HostStats struct {
	Sent        uint64
	Delivered   uint64
	Misdeliver  uint64 // no endpoint for the final segment's port
	DropAborted uint64
	DropNoIface uint64
	DropQueue   uint64
	DropTx      uint64 // transmit failed (link down)
	RateSignals uint64
}

// Host is a Sirpent endpoint: it originates packets along
// directory-provided source routes and receives packets whose final
// header segment addresses one of its endpoints ("intra-host addressing
// is provided by the same mechanism as used for inter-host addressing",
// §2.2). It implements netsim.Node and RateSignalReceiver.
type Host struct {
	eng  *sim.Engine
	name string

	ifaces    map[uint8]*hostIface
	endpoints map[uint8]DeliveryHandler

	// tracer, when non-nil, opens a hop-level trace record for every
	// packet this host originates; the record rides with the packet and
	// is closed wherever its story ends.
	tracer trace.Tracer

	Stats HostStats
}

// hostIface is one network attachment with its send queue and rate gates.
type hostIface struct {
	h      *Host
	port   *netsim.Port
	queue  pktQueue
	limits map[uint8]*rateLimit
	wakeup sim.Time
}

// NewHost creates a host.
func NewHost(eng *sim.Engine, name string) *Host {
	return &Host{
		eng:       eng,
		name:      name,
		ifaces:    make(map[uint8]*hostIface),
		endpoints: make(map[uint8]DeliveryHandler),
	}
}

// Name implements netsim.Node.
func (h *Host) Name() string { return h.name }

// AttachPort registers a network attachment created by a link or segment.
func (h *Host) AttachPort(p *netsim.Port) {
	if p.Node != netsim.Node(h) {
		panic(fmt.Sprintf("host %s: port %v belongs to another node", h.name, p))
	}
	h.ifaces[p.ID] = &hostIface{h: h, port: p, limits: make(map[uint8]*rateLimit)}
}

// Handle registers the delivery handler for an endpoint. Endpoint 0 is
// the default destination of locally addressed packets.
func (h *Host) Handle(endpoint uint8, fn DeliveryHandler) {
	h.endpoints[endpoint] = fn
}

// SetTracer installs (or with nil removes) the hop-level tracer for
// packets originated by this host. Packets of untraced hosts stay
// untraced end to end, at zero per-hop cost.
func (h *Host) SetTracer(t trace.Tracer) { h.tracer = t }

// Errors.
var (
	ErrEmptyRoute = errors.New("router: route must include the sender's own directive segment")
	ErrNoIface    = errors.New("router: route names an unattached interface")
)

// Send originates a packet along a source route. The route's first
// segment is the sender's own directive: its Port selects the outgoing
// interface and its PortInfo carries the first-hop network header. The
// sender appends a local return segment so that the eventual receiver's
// reply terminates here (§2's trailer construction, applied uniformly).
func (h *Host) Send(route []viper.Segment, data []byte) error {
	return h.SendFrom(viper.PortLocal, route, data)
}

// SendFrom is Send with an explicit local endpoint for the reply to
// terminate at.
func (h *Host) SendFrom(endpoint uint8, route []viper.Segment, data []byte) error {
	if len(route) == 0 {
		return ErrEmptyRoute
	}
	own := route[0]
	iface, ok := h.ifaces[own.Port]
	if !ok {
		h.Stats.DropNoIface++
		return ErrNoIface
	}
	var hdr *ethernet.Header
	if len(own.PortInfo) > 0 {
		hd, err := ethernet.Decode(own.PortInfo)
		if err != nil {
			return fmt.Errorf("router: bad first-hop portInfo: %w", err)
		}
		hdr = &hd
	}
	rest := cloneRoute(route[1:])
	// Mark continuation so the packet stays wire-valid if any hop —
	// e.g. an IP tunnel — re-encodes it.
	if err := viper.SealRoute(rest); err != nil {
		return err
	}
	pkt := viper.NewPacket(rest, data)
	pkt.Trailer = append(pkt.Trailer, viper.Segment{
		Port:     endpoint,
		Priority: own.Priority,
		Flags:    own.Flags & viper.FlagDIB,
	})
	h.Stats.Sent++
	iface.send(&frame{
		pkt: pkt, hdr: hdr, prio: own.Priority,
		tr: trace.Start(h.tracer, data), arrived: h.eng.Now(),
	})
	return nil
}

func cloneRoute(in []viper.Segment) []viper.Segment {
	out := make([]viper.Segment, len(in))
	for i := range in {
		out[i] = in[i].Clone()
	}
	return out
}

// send queues a frame for transmission on the interface.
func (i *hostIface) send(f *frame) {
	if i.queue.Len() >= 256 {
		i.h.Stats.DropQueue++
		i.h.dropTrace(f, DropQueueFull)
		return
	}
	i.queue.push(&queued{frame: f, prio: f.prio, enqueued: i.h.eng.Now()})
	i.drain()
}

// dropTrace closes a traced frame that died at this host with a drop
// hop; a no-op for untraced frames.
func (h *Host) dropTrace(f *frame, reason DropReason) {
	if f.tr == nil {
		return
	}
	now := int64(h.eng.Now())
	f.tr.Add(trace.HopEvent{
		Node: h.name, InPort: f.in, Action: trace.ActionDrop,
		Reason: reason, At: now, LatencyNs: now - int64(f.arrived),
	})
	f.tr.Done()
}

func (i *hostIface) drain() {
	now := i.h.eng.Now()
	med := i.port.Medium
	for i.queue.Len() > 0 {
		if free := med.FreeAt(now); free > now {
			i.scheduleDrainAt(free)
			return
		}
		it := i.queue.peekEligible(func(q *queued) bool { return i.eligibleNow(q.frame, now) })
		if it == nil {
			if t, ok := earliestLimit(i.limits, now); ok {
				i.scheduleDrainAt(t)
			}
			return
		}
		i.queue.remove(it)
		tx, err := med.Transmit(i.port, it.frame.pkt, it.frame.hdr, it.frame.prio)
		if err == netsim.ErrMediumBusy {
			// Lost the race for a shared medium; retry when free.
			i.queue.push(it)
			i.scheduleDrainAt(med.FreeAt(now))
			return
		}
		if err != nil {
			// Link down or unroutable: the frame is lost; the
			// transport's retransmission recovers (§4).
			i.h.Stats.DropTx++
			i.h.dropTrace(it.frame, DropTxError)
			continue
		}
		i.chargeLimit(it.frame, now)
		if tr := it.frame.tr; tr != nil {
			tr.Add(trace.HopEvent{
				Node: i.h.name, InPort: it.frame.in, OutPort: i.port.ID,
				Action: trace.ActionForward, QueueDepth: i.queue.Len(),
				At: int64(now), LatencyNs: int64(now - it.frame.arrived),
			})
			tx.Trace = tr
		}
		itf := it.frame
		tx.OnAbort(func(at sim.Time) {
			if !dibFlag(itf) {
				i.send(itf)
			}
		})
		i.scheduleDrainAt(tx.End())
		return
	}
}

func (i *hostIface) scheduleDrainAt(t sim.Time) {
	if t <= i.h.eng.Now() {
		t = i.h.eng.Now()
	}
	if i.wakeup == t {
		return
	}
	i.wakeup = t
	i.h.eng.At(t, func() {
		if i.wakeup == t {
			i.wakeup = -1
		}
		i.drain()
	})
}

func (i *hostIface) eligibleNow(f *frame, now sim.Time) bool {
	if len(i.limits) == 0 {
		return true
	}
	p, ok := nextHopPort(f.pkt)
	if !ok {
		return true
	}
	l := i.limits[p]
	return l == nil || now >= l.nextFree
}

func (i *hostIface) chargeLimit(f *frame, now sim.Time) {
	if len(i.limits) == 0 {
		return
	}
	p, ok := nextHopPort(f.pkt)
	if !ok {
		return
	}
	l := i.limits[p]
	if l == nil {
		return
	}
	base := l.nextFree
	if now > base {
		base = now
	}
	l.nextFree = base + netsim.TxTime(netsim.FrameSize(f.pkt, f.hdr), l.bps)
}

func earliestLimit(limits map[uint8]*rateLimit, now sim.Time) (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, l := range limits {
		if l.nextFree > now && (!found || l.nextFree < best) {
			best = l.nextFree
			found = true
		}
	}
	return best, found
}

// RateSignal implements RateSignalReceiver: back-pressure reaching a
// source throttles its transmissions toward the congested queue (§2.2:
// "The back pressure exerted by the congestion control mechanism causes
// sources to switch to other routes").
func (h *Host) RateSignal(onPort *netsim.Port, sig RateSignal) {
	i, ok := h.ifaces[onPort.ID]
	if !ok || i.port != onPort {
		return
	}
	h.Stats.RateSignals++
	now := h.eng.Now()
	l := i.limits[sig.CongestedPort]
	if l == nil {
		i.limits[sig.CongestedPort] = &rateLimit{bps: sig.AllowedBps, nextFree: now, lastSignal: now}
	} else {
		if sig.AllowedBps < l.bps {
			l.bps = sig.AllowedBps
		}
		l.lastSignal = now
	}
	// Ramp the limit back toward line rate once signals stop, mirroring
	// the router's soft-state decay.
	h.scheduleRamp(i, sig.CongestedPort)
}

func (h *Host) scheduleRamp(i *hostIface, key uint8) {
	const hold = 5 * sim.Millisecond
	h.eng.Schedule(hold, func() {
		l := i.limits[key]
		if l == nil {
			return
		}
		if h.eng.Now()-l.lastSignal < hold {
			h.scheduleRamp(i, key)
			return
		}
		l.bps *= 1.25
		if l.bps >= i.port.Medium.RateBps() {
			delete(i.limits, key)
			i.drain()
			return
		}
		h.scheduleRamp(i, key)
	})
}

// SendRate reports the active limit (bps) toward a congested next-hop
// port on an interface; 0 means unlimited.
func (h *Host) SendRate(iface, congestedPort uint8) float64 {
	i, ok := h.ifaces[iface]
	if !ok {
		return 0
	}
	if l := i.limits[congestedPort]; l != nil {
		return l.bps
	}
	return 0
}

// closeArrival ends a traced packet's record at this host: delivery
// (ActionLocal) or a terminal drop. A no-op for untraced packets.
func (h *Host) closeArrival(arr *netsim.Arrival, action trace.Action, reason DropReason) {
	pt := arr.Tx.Trace
	if pt == nil {
		return
	}
	now := int64(h.eng.Now())
	pt.Add(trace.HopEvent{
		Node: h.name, InPort: arr.In.ID, Action: action,
		Reason: reason, At: now, LatencyNs: now - int64(arr.Start),
	})
	pt.Done()
}

// Arrive implements netsim.Node: hosts receive at the trailing edge (a
// host is not a cut-through device; it stores the packet into memory).
func (h *Host) Arrive(arr *netsim.Arrival) {
	wait := arr.End() - h.eng.Now()
	h.eng.Schedule(wait, func() { h.receive(arr) })
}

func (h *Host) receive(arr *netsim.Arrival) {
	if arr.Tx.Aborted() {
		h.Stats.DropAborted++
		h.closeArrival(arr, trace.ActionDrop, DropAborted)
		return
	}
	pkt, ok := arr.Pkt.(*viper.Packet)
	if !ok {
		h.Stats.Misdeliver++
		h.closeArrival(arr, trace.ActionDrop, DropNotSirpent)
		return
	}
	seg := pkt.Current()
	if seg == nil {
		h.Stats.Misdeliver++
		h.closeArrival(arr, trace.ActionDrop, DropNoSegment)
		return
	}
	endpoint := seg.Port
	handler, ok := h.endpoints[endpoint]
	if !ok {
		// §4.1: the transport layer must recognize misdelivery; the
		// Sirpent layer can only count it.
		h.Stats.Misdeliver++
		h.closeArrival(arr, trace.ActionDrop, DropBadPort)
		return
	}
	// Consume the final segment, appending this host's return segment:
	// the interface the packet arrived on and the swapped network
	// header (§2's reversal applied at the destination).
	ret := viper.Segment{Port: arr.In.ID, Priority: seg.Priority}
	if arr.Hdr != nil {
		ret.PortInfo = arr.Hdr.Swapped().Encode()
	}
	pkt.ConsumeHead(ret)
	h.Stats.Delivered++
	h.closeArrival(arr, trace.ActionLocal, 0)
	handler(&Delivery{
		Pkt:         pkt,
		Data:        pkt.Data,
		ReturnRoute: pkt.ReturnRoute(),
		Hdr:         arr.Hdr,
		Endpoint:    endpoint,
		At:          h.eng.Now(),
		Truncated:   pkt.Truncated,
	})
}
