// Package livenet is a goroutine realization of the Sirpent forwarding
// algorithm on real wire bytes. Every host is one worker goroutine; the
// routers of a network share one forwarding worker, which runs each
// drained batch through every router it reaches before it looks at its
// receive rings again. A link between a host and a router is a pair of
// frame rings, one per direction; a link between two routers on the same
// worker hands each output port's whole batch to the next router in
// place. Where netsim proves the timing claims on virtual time, livenet
// proves the byte-level protocol — the per-hop segment strip, the trailer
// surgery, the return-route reversal — under true concurrency.
//
// Routers use the software-router procedure of §6.2: "after fully
// receiving the packet, copying the first header segment to the end of
// the trailer (with suitable modification) and then transmitting the
// packet starting at the following header segment" — implemented as byte
// surgery without decoding the rest of the packet. A router decides a
// batch at a time through the dataplane batch kernel (see batch.go).
// Tree-multicast branch copies and DAG failover frames re-enter the same
// per-frame disposal, so a router has one forward path, one transmit
// (flushTx) and one counter publication (FlushBatch).
//
// # Buffer ownership
//
// A packet in flight is one pooled frame object (internal/pool) that
// carries its buffer, with capacity headroom so the per-hop surgery
// happens in place; rings, work-lists and batches pass it by pointer.
// Exactly one node owns a frame at any moment; a successful ring push
// or fused hand-off transfers ownership to the consuming node. The
// owner either forwards the frame (ownership moves on), delivers it
// (the frame is recycled when the handler returns), or drops it (the
// frame is recycled immediately). A frame's header may alias the dead
// front region of its own buffer — a link header its sender copied
// there, or the bytes of already-stripped segments — so header and
// packet live and die together. See DESIGN.md §7 for the full rules.
package livenet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/dataplane"
	"repro/internal/ethernet"
	"repro/internal/ledger"
	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/viper"
)

// A frame is one packet in flight: what travels on a link, and what a
// node holds while it decides, delivers or queues it. It is a pooled
// object that owns its buffer; rings, work-lists, accumulators and
// batches move it as one pointer, and the node that holds it owns it
// whole — buffer, views, trace record and arrival tag.
type frame struct {
	// pkt is the encoded VIPER packet, a window of buf. hdr is nil or
	// the link header the packet travels behind (a 14-byte Ethernet
	// header on multi-access hops); it aliases buf's dead front region
	// — where the sender copied it, or a stripped segment's bytes — and
	// is never valid after the frame is recycled.
	pkt []byte
	hdr []byte

	// pt is the packet's hop-level trace record, nil when tracing is
	// off. It shares the frame's ownership rule: the ring push or fused
	// hand-off that transfers the frame also transfers the record, so
	// the sender must append its hop BEFORE pushing and never touch the
	// record after — the happens-before edge of the push (or the one
	// worker running both ends of a fused link) is what makes appends
	// safe without a lock.
	pt *trace.PacketTrace

	// buf is the full-capacity view of the frame's backing array. pkt's
	// start drifts forward as hops strip segments, so pkt alone cannot
	// name the array; release recycles the frame with buf.
	buf []byte

	// port is the frame's arrival port at the node holding it, and
	// arrived its wall-clock arrival stamp for per-hop latency, taken
	// only for traced frames (the untraced path performs no clock
	// reads). The consumer sets both as it takes the frame.
	port    uint8
	arrived int64
}

// frames is the free list frames are taken from and recycled to, each
// with its buffer; it counts into pool.Stats.
var frames = pool.List[*frame]{New: func(capacity int) *frame {
	return &frame{buf: make([]byte, 0, capacity)}
}}

// newFrame takes a frame whose buffer holds at least n bytes after a
// copy of hdr, which becomes the frame's link header at the buffer's
// front. It returns the empty rest of the buffer, for the packet.
func newFrame(hdr []byte, n int) (*frame, []byte) {
	f := frames.Get(len(hdr) + n)
	b := f.buf
	if len(hdr) > 0 {
		b = append(b, hdr...)
		f.hdr = b[:len(hdr):len(hdr)]
		b = b[len(hdr):]
	}
	return f, b
}

// release recycles the frame with its buffer, invalidating pkt and a
// hdr that aliases it. Only the frame's owner may call it, once.
func (f *frame) release() {
	buf := f.buf[:0]
	*f = frame{buf: buf}
	frames.Put(f, cap(buf))
}

// Network owns the nodes and coordinates shutdown. cfg is written once,
// by NewNetwork, before any node exists, so every goroutine reads it
// without synchronization. w is the forwarding worker the network's
// routers run on, created with the first router.
type Network struct {
	wg      sync.WaitGroup
	stopped atomic.Bool
	nodes   []stoppable // hosts and workers
	cfg     networkConfig
	w       *worker
	split   bool // SplitRouters: every router gets a worker of its own
}

// stoppable is what Stop does to a host or a worker: close signals its
// goroutine to exit, and shut recycles the frames it still holds once
// every goroutine of the network has exited.
type stoppable interface {
	close()
	shut()
}

// networkConfig collects NewNetwork options. The zero value has
// tracing, flight recording and ledger collection off.
type networkConfig struct {
	tracer    trace.Tracer
	flight    *ledger.FlightRecorder
	collector *ledger.Collector
}

// NetworkOption configures one NewNetwork call.
type NetworkOption func(*networkConfig)

// WithTracer installs the network's hop-level tracer: every packet
// originated by any host of this network carries a trace record from
// the first Send on.
func WithTracer(t trace.Tracer) NetworkOption {
	return func(c *networkConfig) { c.tracer = t }
}

// WithFlightRecorder installs the network's anomaly ring: drops, token
// denials, and link flaps across all routers and links are recorded
// from the first frame on. The recording sites sit only on anomaly
// paths, so the happy forwarding path pays nothing.
func WithFlightRecorder(fr *ledger.FlightRecorder) NetworkOption {
	return func(c *networkConfig) { c.flight = fr }
}

// WithLedgerCollector registers every router this network creates as an
// account source on col: once a router is token-guarded
// (SetTokenAuthority), the collector's sweeps pick up its cache's
// per-account totals under the router's name.
func WithLedgerCollector(col *ledger.Collector) NetworkOption {
	return func(c *networkConfig) { c.collector = col }
}

// NewNetwork creates an empty live network.
func NewNetwork(opts ...NetworkOption) *Network {
	n := &Network{}
	for _, o := range opts {
		o(&n.cfg)
	}
	return n
}

// SplitRouters is a test hook, not a tuning knob: every router n
// creates after the call runs on a worker of its own, so every
// router-to-router link is a ring with a doorbell, as a host's link is,
// instead of an in-place hand-off. The race suites run each scenario
// under both partitions. Call it before the network's first NewRouter.
func SplitRouters(n *Network) { n.split = true }

// Stop shuts all nodes down and waits for their goroutines. Once every
// node has exited it recycles the frames still handed over between
// routers and the frames still in a receive ring, whose ring it closes,
// so a later push fails and its sender keeps the frame.
func (n *Network) Stop() {
	if n.stopped.Swap(true) {
		return
	}
	for _, nd := range n.nodes {
		nd.close()
	}
	n.wg.Wait()
	for _, nd := range n.nodes {
		nd.shut()
	}
}

// node is the common plumbing of hosts and routers: ports transmit on
// pipes, and the node's receive rings (rx) are drained by one goroutine
// — the host's own, or the router's network worker — which sleeps on
// bell when they are empty (see batch.go).
type node struct {
	name string
	done chan struct{} // closed at Stop; a router shares its worker's
	bell chan struct{} // a router shares its worker's
	once sync.Once
	mu   sync.Mutex // serializes wiring (addRx, addTx, Host.Handle)

	// ports is the transmit table, indexed by output port, nil where
	// nothing is wired; rx holds the receive rings this node's consumer
	// alone drains. Both are published copy-on-write, so the forwarding
	// path reads them with one atomic load and no lock or hash.
	ports atomic.Pointer[[]*pipe]
	rx    atomic.Pointer[[]*pipe]
}

func newNode(name string, done, bell chan struct{}) *node {
	return &node{name: name, done: done, bell: bell}
}

func (nd *node) close() { nd.once.Do(func() { close(nd.done) }) }

// shut closes and empties the node's receive rings; see Network.Stop.
func (nd *node) shut() {
	for _, p := range nd.rxPipes() {
		p.shut()
	}
}

// outPipe returns the transmit pipe wired to a port, nil if none.
func (nd *node) outPipe(port uint8) *pipe {
	if t := nd.ports.Load(); t != nil && int(port) < len(*t) {
		return (*t)[port]
	}
	return nil
}

// send transmits one frame on a port, parking while the ring is full,
// and transfers ownership to the receiving node; it reports false — and
// the caller keeps ownership — if the port is unknown or either end is
// shutting down. Hosts use it; routers never park (flushTx).
func (nd *node) send(port uint8, f *frame) bool {
	p := nd.outPipe(port)
	return p != nil && p.push(f, nd.done)
}

// portUp reports whether a port's link is wired and not failed — the
// dataplane's PortUp hook.
func (nd *node) portUp(port uint8) bool {
	p := nd.outPipe(port)
	return p != nil && p.link != nil && !p.link.IsDown()
}

// portDepth reports the occupancy of a port's link — the livenet
// analogue of an output-queue depth: the frames in its ring, or on a
// fused link the frames handed over and not yet consumed. Called only
// for traced frames, on the worker that owns a fused link's count.
func (nd *node) portDepth(port uint8) int {
	switch p := nd.outPipe(port); {
	case p == nil:
		return 0
	case p.to != nil:
		return p.held
	default:
		return p.r.Len()
	}
}

// Link is a handle on one bidirectional livenet link, used for fault
// injection: a down link silently discards frames in both directions (as
// a cut cable would), and a loss ratio discards each frame independently
// with the given probability. Discards are counted in Dropped so
// conservation checks can attribute every missing packet. All methods
// are safe for concurrent use, including mid-flight flaps.
type Link struct {
	down     atomic.Bool
	lossBits atomic.Uint64 // math.Float64bits of the loss probability
	dropped  atomic.Uint64
	name     string                 // "a<->b", for flight-recorder flap events
	flight   *ledger.FlightRecorder // the network's; nil when recording is off
}

// SetDown fails (true) or restores (false) both directions of the link.
// State transitions are recorded in the network's flight recorder.
func (l *Link) SetDown(down bool) {
	if l.down.Swap(down) == down || l.flight == nil {
		return
	}
	reason := "up"
	if down {
		reason = "down"
	}
	l.flight.Record(ledger.Event{
		At: clock.Wall.NowNanos(), Node: l.name,
		Kind: ledger.KindLinkFlap, Reason: reason,
	})
}

// IsDown reports whether the link is failed.
func (l *Link) IsDown() bool { return l.down.Load() }

// SetLossRatio makes each frame be discarded with probability p (0
// disables).
func (l *Link) SetLossRatio(p float64) { l.lossBits.Store(math.Float64bits(p)) }

// Dropped returns the number of frames discarded by fault injection.
func (l *Link) Dropped() uint64 { return l.dropped.Load() }

// drops draws the fault lottery for one frame delivery.
func (l *Link) drops() bool {
	if l == nil {
		return false
	}
	if l.down.Load() {
		l.dropped.Add(1)
		return true
	}
	if p := math.Float64frombits(l.lossBits.Load()); p > 0 && rand.Float64() < p {
		l.dropped.Add(1)
		return true
	}
	return false
}

// DefaultLinkDepth is the per-direction depth, in frames, of a link
// created without WithDepth (a ring's capacity, or what a fused link may
// hold): one full batch in flight per direction, so a burst flushes
// without the producer parking between sub-pushes. A link that must
// absorb a longer unpaced burst (the gateway's relay window) asks for
// more with WithDepth.
const DefaultLinkDepth = batchSize

// linkConfig collects Connect options.
type linkConfig struct {
	depth int
}

// LinkOption configures one Connect call.
type LinkOption func(*linkConfig)

// WithDepth sets the link's per-direction depth in frames, rounded up
// to a power of two. Non-positive values are ignored.
func WithDepth(n int) LinkOption {
	return func(c *linkConfig) {
		if n > 0 {
			c.depth = n
		}
	}
}

// Connect joins two nodes with a bidirectional link and returns the
// link's fault-injection handle. WithDepth sets the per-direction depth
// (DefaultLinkDepth otherwise). Between two routers on the same worker
// each direction is a fused hand-off (batch.go); every other direction
// is a ring pipe. Receive ends are registered before transmit ends, so
// no frame can arrive at an unregistered consumer. Connect is safe
// while traffic flows.
func (n *Network) Connect(a Attachable, portA uint8, b Attachable, portB uint8, opts ...LinkOption) *Link {
	cfg := linkConfig{depth: DefaultLinkDepth}
	for _, o := range opts {
		o(&cfg)
	}
	na, nb := a.base(), b.base()
	l := &Link{name: na.name + "<->" + nb.name, flight: n.cfg.flight}
	var ab, ba *pipe // a -> b arrives on b's portB, b -> a on a's portA
	if ra, rb := asRouter(a), asRouter(b); ra != nil && rb != nil && ra.w == rb.w {
		ab = newFusedPipe(cfg.depth, portB, l, rb)
		ba = newFusedPipe(cfg.depth, portA, l, ra)
	} else {
		ab = newPipe(cfg.depth, portB, l, nb)
		ba = newPipe(cfg.depth, portA, l, na)
		nb.addRx(ab)
		na.addRx(ba)
	}
	na.addTx(portA, ab)
	nb.addTx(portB, ba)
	return l
}

// asRouter returns the router behind an attachment point, nil for a host.
func asRouter(a Attachable) *Router {
	r, _ := a.(*Router)
	return r
}

// Attachable is implemented by livenet hosts and routers.
type Attachable interface{ base() *node }

// counters is the router's concurrently-updated counter plane; Stats
// snapshots it into the shared stats.Counters surface.
type counters struct {
	forwarded       atomic.Uint64
	local           atomic.Uint64
	tokenAuthorized atomic.Uint64
	drops           [stats.NumDropReasons]atomic.Uint64
}

// Router is a Sirpent switch run by its network's forwarding worker.
// Its per-hop work — decode, token check, three-way action, trailer
// mirror — is the shared dataplane pipeline; this type contributes the
// batch I/O and the pooled-buffer ownership discipline. A packet whose
// current segment is port 0 (the router's own stack) is counted Local
// and its buffer recycled. The token state is dataplane.TokenState
// behind an atomic pointer: immutable once published, so the worker
// reads a consistent cache/require pair with one load, keeping the
// tokenless fast path allocation- and lock-free.
type Router struct {
	*node
	counters counters
	plane    dataplane.Pipeline
	tok      atomic.Pointer[dataplane.TokenState]

	// Owned by the worker w: sc.in doubles as the input handed over on
	// fused links, and fedBy lists the fused links whose held count that
	// input accounts for — non-empty exactly while the router is on w's
	// work-list.
	w     *worker
	sc    *batchScratch
	fedBy []*pipe
}

// SetTokenAuthority installs the administrative domain key this router
// verifies tokens against, enabling token checking (§2.2). Any port
// requirements set earlier are preserved.
func (r *Router) SetTokenAuthority(a *token.Authority) {
	for {
		old := r.tok.Load()
		if r.tok.CompareAndSwap(old, old.WithAuthority(a)) {
			return
		}
	}
}

// RequireToken makes packets without a valid token for the given output
// port be denied rather than forwarded. It takes effect once a token
// authority is installed.
func (r *Router) RequireToken(port uint8) {
	for {
		old := r.tok.Load()
		if r.tok.CompareAndSwap(old, old.WithRequired(port)) {
			return
		}
	}
}

// TokenCache exposes the router's token cache for accounting sweeps;
// nil until SetTokenAuthority is called.
func (r *Router) TokenCache() *token.Cache { return r.tok.Load().Cache() }

// newRouter builds a router and its dataplane pipeline on the network's
// worker (a worker of its own after SplitRouters) without starting any
// goroutine: the hop tests drive forwardBatch and the worker directly.
func (n *Network) newRouter(name string) *Router {
	if n.w == nil || n.split {
		n.w = newWorker()
		n.nodes = append(n.nodes, n.w)
	}
	w := n.w
	r := &Router{node: newNode(name, w.done, w.bell), w: w, sc: newBatchScratch()}
	r.plane = dataplane.Pipeline{
		Node:  name,
		Clock: clock.Wall,
		// Livenet realizes token.Block: uncached tokens verify
		// synchronously on the forwarding worker (see forwardBatch).
		Mode: token.Block,
		Hooks: dataplane.Hooks{
			CountDrop:            func(reason stats.DropReason, k uint64) { r.counters.drops[reason].Add(k) },
			CountLocal:           func(k uint64) { r.counters.local.Add(k) },
			CountTokenAuthorized: func(k uint64) { r.counters.tokenAuthorized.Add(k) },
			Flight:               func() *ledger.FlightRecorder { return n.cfg.flight },
			QueueDepth:           r.portDepth,
			PortUp:               r.node.portUp,
		},
	}
	w.add(r)
	return r
}

// NewRouter creates a router on the network's forwarding worker,
// starting the worker with the network's first router.
func (n *Network) NewRouter(name string) *Router {
	r := n.newRouter(name)
	if col := n.cfg.collector; col != nil {
		// The cache appears only once the router is token-guarded; the
		// closure resolves it per sweep so registration order and
		// guarding order are independent.
		col.AddAccountSource(name, func() map[uint32]token.Usage {
			if c := r.TokenCache(); c != nil {
				return c.AccountTotals()
			}
			return nil
		})
	}
	if w := r.w; !w.started {
		w.started = true
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			w.run()
		}()
	}
	return r
}

func (r *Router) base() *node { return r.node }

// Stats returns a snapshot of the router's counters on the shared
// stats.Counters surface, diffable against the simulation substrate's.
func (r *Router) Stats() stats.Counters {
	var c stats.Counters
	c.Forwarded = r.counters.forwarded.Load()
	c.Local = r.counters.local.Load()
	c.TokenAuthorized = r.counters.tokenAuthorized.Load()
	for i := range r.counters.drops {
		c.Drops[i] = r.counters.drops[i].Load()
	}
	return c
}

// frameHeadroom estimates the spare capacity a frame needs so that every
// later hop's trailer append stays in place. Each hop mirrors the
// stripped segment's token and echoes an arrival header — together
// bounded by the remaining forward-header bytes — plus fixed descriptor
// and length-escape overhead per hop.
func frameHeadroom(hops, headerBytes int) int {
	return headerBytes + (hops+1)*(ethernet.HeaderLen+8)
}

// Delivery is a packet received by a live host. Data aliases the frame's
// pooled buffer and is valid only until the handler returns; handlers
// that retain the payload must copy it. ReturnRoute is the packet's
// trailer completed by the arrival hop, as bytes the delivery owns:
// immutable and safe to keep. Reply along ReturnRoute.Segments(nil).
// Its bytes are the one allocation a steady delivery makes, the size
// of the trailer; the host validates every trailer, keeping nothing
// from one delivery to the next (viper.DecodeDelivery).
type Delivery struct {
	Data        []byte
	ReturnRoute viper.Route
	Endpoint    uint8
}

// Host is a goroutine Sirpent endpoint. Hosts keep a goroutine each
// because their handlers may block.
type Host struct {
	*node
	netw *Network
	// handlers is indexed by endpoint, nil where none is registered;
	// Handle publishes it copy-on-write, so a delivery finds its
	// handler with one atomic load and no lock.
	handlers atomic.Pointer[[]func(Delivery)]
	raw      atomic.Pointer[func([]RawFrame)] // pre-decode tap, see SetRawHandler/SetRawTap
	tapped   []RawFrame                       // the batch handed to the tap; receive only
}

// NewHost creates and starts a host goroutine; one goroutine receives on
// all the host's ports, so deliveries to one host stay ordered.
func (n *Network) NewHost(name string) *Host {
	h := &Host{
		node: newNode(name, make(chan struct{}), make(chan struct{}, 1)),
		netw: n,
	}
	n.nodes = append(n.nodes, h.node)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		h.run()
	}()
	return h
}

func (h *Host) base() *node { return h.node }

// Handle registers a delivery handler for a host endpoint. Handlers run
// on the host's goroutine.
func (h *Host) Handle(endpoint uint8, fn func(Delivery)) {
	h.node.mu.Lock()
	var table []func(Delivery)
	if old := h.handlers.Load(); old != nil {
		table = append(table, *old...)
	}
	if int(endpoint) >= len(table) {
		table = append(table, make([]func(Delivery), int(endpoint)+1-len(table))...)
	}
	table[endpoint] = fn
	h.handlers.Store(&table)
	h.node.mu.Unlock()
}

// handler returns the delivery handler registered for an endpoint, nil
// if none is.
func (h *Host) handler(endpoint uint8) func(Delivery) {
	if t := h.handlers.Load(); t != nil && int(endpoint) < len(*t) {
		return (*t)[endpoint]
	}
	return nil
}

// Send originates a packet along a source route (sender directive
// first, as in the simulator's Host). The wire image is assembled
// directly into a pooled buffer — no route clone, no intermediate
// Packet — with enough headroom for every hop's trailer growth. Every
// send seals the carried route into the frame itself, with no lock and
// no state kept per flow, so any goroutine may send. Injection and the
// frame's whole transit are allocation-free in steady state, a first
// hop's link header included: it is copied into the frame's own buffer
// (TestSendAllocs).
func (h *Host) Send(route []viper.Segment, data []byte) error {
	return h.SendFrom(viper.PortLocal, route, data)
}

// SendFrom is Send with an explicit origin endpoint: the packet's
// origin trailer names this endpoint instead of PortLocal, so replies
// along the accumulated return route deliver to the Handle(endpoint)
// handler rather than the default one. Services multiplexed beside
// other traffic on one host (the gateway's VMTP endpoints) use this to
// keep their return traffic off endpoint 0.
func (h *Host) SendFrom(endpoint uint8, route []viper.Segment, data []byte) error {
	if len(route) < 2 {
		return fmt.Errorf("livenet: empty route")
	}
	own := &route[0]
	rest := route[1:]
	headerLen := routeWireLen(rest)
	// The first hop's link header is copied to the front of the frame's
	// buffer, not aliased: the first-hop router swaps it in place, and
	// the caller's route must not be scribbled on.
	f, buf := newFrame(own.PortInfo, headerLen+tailLen(len(data), own.Priority)+frameHeadroom(len(rest), headerLen))
	b, err := viper.AppendSealedRoute(buf, rest)
	if err == nil {
		b, err = appendTail(b, data, endpoint, own.Priority)
	}
	if err != nil {
		f.release()
		return err
	}
	f.pkt = b
	return h.inject(own.Port, f, trace.Start(h.netw.cfg.tracer, data))
}

// SendRawTraced transmits an already-encoded VIPER packet on one of
// the host's interfaces, exactly as received: no route interpretation,
// no segment strip, no origin trailer. It is the injection half of an
// encapsulation gateway (internal/udpnet, §2.3's "one logical hop"
// story): bytes that crossed a foreign transport re-enter the Sirpent
// network here, and the adjacent node sees an ordinary arrival on its
// end of the link. The bytes are copied into a pooled buffer with
// forwarding headroom; the caller keeps pkt. When ctx is valid and the
// network's tracer can resume foreign traces (trace.Resumer), the frame
// carries a resumed record, so the packet's transit of *this* process
// is recorded under the same cluster-wide trace ID it left the previous
// process with; a zero ctx injects untraced.
func (h *Host) SendRawTraced(ifPort uint8, pkt []byte, ctx trace.Context) error {
	f, buf := newFrame(nil, len(pkt)+frameHeadroom(4, len(pkt)))
	f.pkt = append(buf, pkt...)
	var pt *trace.PacketTrace
	if ctx.Valid() {
		pt = trace.Resume(h.netw.cfg.tracer, ctx)
	}
	return h.inject(ifPort, f, pt)
}

// inject transmits a frame this host originated, with pt (nil when
// untraced) as its record. The origin hop is appended before the send —
// ownership of the record transfers with the frame (see frame.pt). A
// failed send ends the record with a DropTxError hop and recycles the
// frame.
func (h *Host) inject(port uint8, f *frame, pt *trace.PacketTrace) error {
	if pt != nil {
		pt.Add(trace.HopEvent{
			Node: h.name, OutPort: port, Action: trace.ActionForward,
			At: clock.Wall.NowNanos(),
		})
		f.pt = pt
	}
	if h.send(port, f) {
		return nil
	}
	if pt != nil {
		pt.Add(trace.HopEvent{
			Node: h.name, Action: trace.ActionDrop, Reason: stats.DropTxError,
			At: clock.Wall.NowNanos(),
		})
		pt.Done()
	}
	f.release()
	return fmt.Errorf("livenet: no interface %d on %s", port, h.name)
}

// closeReceive ends a traced frame's record at this host; action is
// ActionLocal on delivery, ActionDrop with a reason otherwise.
func (h *Host) closeReceive(f *frame, action trace.Action, reason stats.DropReason) {
	pt := f.pt
	if pt == nil {
		return
	}
	now := clock.Wall.NowNanos()
	pt.Add(trace.HopEvent{
		Node: h.name, InPort: f.port, Action: action, Reason: reason,
		At: now, LatencyNs: now - f.arrived,
	})
	pt.Done()
}

// recordDrop makes a host-side discard visible in the network's flight
// recorder. Hosts have no counter plane, so without this a packet
// reaching a host that cannot decode it — or one with no handler on
// the addressed endpoint — would vanish without evidence; this exact
// silence once hid a cluster startup race (a request arriving before
// the receiving daemon installed its handler) until tunnel counters
// were cross-checked by hand.
func (h *Host) recordDrop(port uint8, reason stats.DropReason) {
	if fr := h.netw.cfg.flight; fr != nil {
		fr.Record(ledger.Event{
			At: clock.Wall.NowNanos(), Node: h.name, Port: port,
			Kind: dataplane.DropKind(reason), Reason: reason.String(),
		})
	}
}

func (h *Host) receive(f *frame) {
	var inInfo []byte
	if f.hdr != nil && ethernet.SwapInPlace(f.hdr) == nil {
		// The frame — header included — is ours until the handler
		// returns, so the swap happens in place; DecodeDelivery copies
		// the swapped header into the return route.
		inInfo = f.hdr
	}
	seg, data, ret, err := viper.DecodeDelivery(f.pkt, f.port, inInfo)
	if err != nil {
		h.closeReceive(f, trace.ActionDrop, stats.DropNotSirpent)
		h.recordDrop(f.port, stats.DropNotSirpent)
		f.release()
		return
	}
	if fn := h.handler(seg.Port); fn != nil {
		h.closeReceive(f, trace.ActionLocal, 0)
		fn(Delivery{Data: data, ReturnRoute: ret, Endpoint: seg.Port})
	} else {
		h.closeReceive(f, trace.ActionDrop, stats.DropBadPort)
		h.recordDrop(f.port, stats.DropBadPort)
	}
	f.release()
}
