// Package livenet is a goroutine realization of the Sirpent forwarding
// algorithm: every host and router is one worker goroutine, every link
// is a pair of frame rings (one per direction), and every hop operates
// on real wire bytes. Where netsim proves the timing claims on virtual
// time, livenet proves the byte-level protocol — the per-hop segment
// strip, the trailer surgery, the return-route reversal — under true
// concurrency.
//
// Routers use the software-router procedure of §6.2: "after fully
// receiving the packet, copying the first header segment to the end of
// the trailer (with suitable modification) and then transmitting the
// packet starting at the following header segment" — implemented as byte
// surgery without decoding the rest of the packet. A router's worker
// drains its receive rings a batch at a time and decides each batch
// through the dataplane batch kernel (see batch.go).
//
// # Buffer ownership
//
// Frames travel in pooled buffers (internal/pool) with capacity headroom
// so the per-hop surgery happens in place. Exactly one node owns a
// frame's buffer at any moment; a successful ring push transfers
// ownership to the consuming node. The owner either forwards the frame
// (ownership moves on), delivers it (the buffer is recycled when the
// handler returns), or drops it (the buffer is recycled immediately).
// Frame.Hdr may alias the dead front region of the same buffer — the
// bytes of already-stripped segments — so header and packet live and die
// together. See DESIGN.md §7 for the full rules.
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

// Frame is what travels on a link: an optional network header (Ethernet
// on multi-access hops, nil on point-to-point) and the encoded VIPER
// packet. Pkt is a pooled buffer owned by whichever node currently holds
// the frame; Hdr either aliases Pkt's backing array (the stripped bytes
// of a previous hop's segment) or is a private copy, and is never valid
// after Pkt is recycled.
type Frame struct {
	Hdr []byte // nil or 14-byte Ethernet header
	Pkt []byte

	// Trace is the packet's hop-level trace record, nil when tracing is
	// off. It shares the frame's ownership rule: the ring push that
	// transfers the buffer also transfers the record, so the sender must
	// append its hop BEFORE pushing and never touch the record after —
	// the happens-before edge of the push is what makes appends safe
	// without a lock.
	Trace *trace.PacketTrace

	// buf is the full-capacity view of Pkt's pooled backing array. Pkt's
	// start drifts forward as hops strip segments, so Pkt alone cannot
	// recover the buffer for recycling; release returns buf to the pool.
	// nil for frames whose packet bytes are not pool-owned.
	buf []byte
}

// release recycles the frame's pooled buffer, invalidating Pkt and any
// Hdr that aliases it. Only the frame's owner may call it, once.
func (f Frame) release() {
	if f.buf != nil {
		pool.Put(f.buf)
	}
}

// inFrame tags a frame with its arrival port. arrived is the wall-clock
// ingress stamp for per-hop latency, taken only for traced frames (the
// untraced path performs no clock reads).
type inFrame struct {
	port    uint8
	frame   Frame
	arrived int64
}

// Network owns the nodes and coordinates shutdown. cfg is written once,
// by NewNetwork, before any node exists, so every goroutine reads it
// without synchronization.
type Network struct {
	wg      sync.WaitGroup
	stopped atomic.Bool
	nodes   []interface{ close() }
	cfg     networkConfig
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
// per-account totals under the router's name. This replaces the manual
// per-router AddAccountSource wiring.
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

// Stop shuts all nodes down and waits for their goroutines.
func (n *Network) Stop() {
	if n.stopped.Swap(true) {
		return
	}
	for _, nd := range n.nodes {
		nd.close()
	}
	n.wg.Wait()
}

// node is the common worker plumbing: ports transmit on ring pipes
// (out), and the node's one worker drains its receive pipes (rx),
// sleeping on bell when they are empty (see batch.go).
type node struct {
	name  string
	done  chan struct{}
	once  sync.Once
	out   map[uint8]*pipe
	links map[uint8]*Link // port -> fault handle, for DAG failover link health
	mu    sync.Mutex

	// rx holds the receive pipes this node's worker alone drains,
	// published copy-on-write so the worker reads them lock-free; bell is
	// the doorbell producers ring to wake it.
	rx   atomic.Pointer[[]*pipe]
	bell chan struct{}
}

func (n *Network) newNode(name string) *node {
	return &node{
		name:  name,
		done:  make(chan struct{}),
		out:   make(map[uint8]*pipe),
		links: make(map[uint8]*Link),
		bell:  make(chan struct{}, 1),
	}
}

func (nd *node) close() { nd.once.Do(func() { close(nd.done) }) }

// outPipe returns the transmit pipe wired to a port, nil if none.
func (nd *node) outPipe(port uint8) *pipe {
	nd.mu.Lock()
	p := nd.out[port]
	nd.mu.Unlock()
	return p
}

// send transmits one frame on a port, parking while the ring is full,
// and transfers buffer ownership to the receiving node; it reports
// false — and the caller keeps ownership — if the port is unknown or
// either end is shutting down. Hosts use it; routers never park
// (trySend, flushTx).
func (nd *node) send(port uint8, f Frame) bool {
	p := nd.outPipe(port)
	return p != nil && p.push(f, nd.done)
}

// txStatus classifies a non-blocking transmit attempt for drop
// accounting: the distinctions map onto DropQueueFull, DropBadPort,
// and DropTxError.
type txStatus uint8

const (
	txOK     txStatus = iota // frame transferred; ownership moved
	txFull                   // output queue at limit; caller keeps ownership
	txNoPort                 // port not wired; caller keeps ownership
	txDown                   // network shutting down; caller keeps ownership
)

// trySend is the router's one-frame transmit (the fanout and failover
// re-entry): like send, but it never parks on a full ring — it reports
// txFull and the caller drops the frame with DropQueueFull, as the
// simulation substrate's outport does. This is what keeps the mesh
// deadlock-free: a blocking router transmit lets two adjacent routers
// wedge each other under bidirectional saturation (each parked on the
// other's full ring, so neither drains), a circular wait no amount of
// ring depth removes. Hosts keep the blocking send — their backpressure
// cannot cycle because routers always drain.
func (nd *node) trySend(port uint8, f Frame) txStatus {
	p := nd.outPipe(port)
	if p == nil {
		return txNoPort
	}
	one := [1]Frame{f}
	if p.tryPush(one[:]) == 1 {
		return txOK
	}
	select {
	case <-nd.done:
		return txDown
	default:
		return txFull
	}
}

// portUp reports whether a port's link is wired and not failed — the
// dataplane's PortUp hook. The mutex is acceptable here because only
// DAG-segment hops consult link health; plain forwarding never calls
// it.
func (nd *node) portUp(port uint8) bool {
	nd.mu.Lock()
	l := nd.links[port]
	nd.mu.Unlock()
	return l != nil && !l.IsDown()
}

// portDepth reports the occupancy of a port's transmit ring — the
// livenet analogue of an output-queue depth. Called only for traced
// frames; the untraced path never takes this lock.
func (nd *node) portDepth(port uint8) int {
	if p := nd.outPipe(port); p != nil {
		return p.r.Len()
	}
	return 0
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

// DefaultLinkDepth is the per-direction ring depth, in frames, of a
// link created without WithDepth: one full batch in flight per
// direction, so a burst flushes without the producer parking between
// sub-pushes. A link that must absorb a longer unpaced burst (the
// gateway's relay window) asks for more with WithDepth.
const DefaultLinkDepth = batchSize

// linkConfig collects Connect options.
type linkConfig struct {
	depth int
}

// LinkOption configures one Connect call.
type LinkOption func(*linkConfig)

// WithDepth sets the link's per-direction ring depth in frames, rounded
// up to a power of two. Non-positive values are ignored.
func WithDepth(n int) LinkOption {
	return func(c *linkConfig) {
		if n > 0 {
			c.depth = n
		}
	}
}

// Connect joins two nodes with a bidirectional link — one ring pipe per
// direction — and returns the link's fault-injection handle. WithDepth
// sets the ring depth (DefaultLinkDepth otherwise). Receive ends are
// registered before transmit ends, so no frame can arrive at an
// unregistered consumer.
func (n *Network) Connect(a Attachable, portA uint8, b Attachable, portB uint8, opts ...LinkOption) *Link {
	cfg := linkConfig{depth: DefaultLinkDepth}
	for _, o := range opts {
		o(&cfg)
	}
	na, nb := a.base(), b.base()
	l := &Link{name: na.name + "<->" + nb.name, flight: n.cfg.flight}
	ab := newPipe(cfg.depth, portB, l, nb) // a -> b, arrives on b's portB
	ba := newPipe(cfg.depth, portA, l, na) // b -> a, arrives on a's portA
	nb.addRx(ab)
	na.addRx(ba)
	na.addTx(portA, ab)
	nb.addTx(portB, ba)
	return l
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

// Router is a goroutine Sirpent switch. Its per-hop work — decode,
// token check, three-way action, trailer mirror — is the shared
// dataplane pipeline; this type contributes the worker, the ring I/O,
// and the pooled-buffer ownership discipline. The token state is
// dataplane.TokenState behind an atomic pointer: immutable once
// published, so the forwarding goroutine reads a consistent
// cache/require pair with one load, keeping the tokenless fast path
// allocation- and lock-free.
type Router struct {
	*node
	counters counters
	local    func([]byte)
	plane    dataplane.Pipeline
	tok      atomic.Pointer[dataplane.TokenState]
}

// SetLocalHandler receives encoded packets whose current segment is
// port 0 (the router's own stack). It runs on the router goroutine and
// takes ownership of the buffer (which leaves the pool).
func (r *Router) SetLocalHandler(fn func(encoded []byte)) { r.local = fn }

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

// newRouter builds a router and its dataplane pipeline without starting
// the forwarding goroutine (the hop benchmarks drive forwardBatch
// directly).
func (n *Network) newRouter(name string) *Router {
	r := &Router{node: n.newNode(name)}
	r.plane = dataplane.Pipeline{
		Node:  name,
		Clock: clock.Wall,
		// Livenet realizes token.Block: uncached tokens verify
		// synchronously on the forwarding goroutine (see forwardBatch).
		Mode: token.Block,
		Hooks: dataplane.Hooks{
			CountDrop:             func(reason stats.DropReason) { r.counters.drops[reason].Add(1) },
			CountLocal:            func() { r.counters.local.Add(1) },
			CountTokenAuthorized:  func() { r.counters.tokenAuthorized.Add(1) },
			CountDropN:            func(reason stats.DropReason, k uint64) { r.counters.drops[reason].Add(k) },
			CountLocalN:           func(k uint64) { r.counters.local.Add(k) },
			CountTokenAuthorizedN: func(k uint64) { r.counters.tokenAuthorized.Add(k) },
			Flight:                func() *ledger.FlightRecorder { return n.cfg.flight },
			QueueDepth:            r.portDepth,
			PortUp:                r.node.portUp,
		},
	}
	return r
}

// NewRouter creates and starts a router with its one forwarding
// goroutine.
func (n *Network) NewRouter(name string) *Router {
	r := n.newRouter(name)
	n.nodes = append(n.nodes, r.node)
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
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		r.run(r.forwardBatch)
	}()
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

// drop accounts one dropped frame through the dataplane's sinks
// (counter, flight event, trace terminal hop) and recycles its buffer.
// The trace work is behind the pipeline's nil checks: untraced drops
// cost one pointer test.
func (r *Router) drop(reason stats.DropReason, inf inFrame) {
	r.dropAcct(reason, inf, 0)
}

// dropAcct is drop with the refused account attached to the flight
// event, for token denials against a verified token.
func (r *Router) dropAcct(reason stats.DropReason, inf inFrame, account uint32) {
	r.plane.Drop(reason, inf.port, account, inf.frame.Trace, inf.arrived)
	inf.frame.release()
}

// forwardDepth runs one frame through the shared dataplane pipeline
// and performs the §6.2 software-router byte surgery in place: the
// leading segment's bytes become a dead region at the front of the
// buffer (the decoded segment's fields alias it), the mirrored return
// segment is appended over the trailer descriptor at the tail, and the
// frame moves on in the same buffer. It is the one-frame re-entry of
// forwardBatch: fanout branches enter at depth 0, and a failover that
// spliced a DAG alternate into the buffer re-enters at depth+1; the cap
// stops a crafted alternate whose head is itself a dead-primary DAG
// segment from cycling forever.
func (r *Router) forwardDepth(inf inFrame, depth int) {
	seg, rest, err := dataplane.DecodeHop(inf.frame.Pkt)
	if err != nil {
		r.drop(stats.DropNotSirpent, inf)
		return
	}
	// The charge size matches the simulator's FrameSize: the full
	// pre-strip packet plus the arrival Ethernet header, so per-account
	// byte totals agree across substrates.
	in := dataplane.HopInput{
		InPort:      inf.port,
		Seg:         &seg,
		ChargeBytes: uint64(len(inf.frame.Pkt)),
	}
	if inf.frame.Hdr != nil {
		in.ChargeBytes += ethernet.HeaderLen
	}
	// Token authorization (§2.2) runs inside Decide, before the
	// multicast fanout and local delivery as on the simulator. The
	// tokenless fast path pays one atomic load.
	ts := r.tok.Load()
	v := r.plane.Decide(ts, &in)
	if v.Action == dataplane.ActionAwaitToken {
		// Livenet realizes the Block mode: the uncached token is
		// verified synchronously — the HMAC computation is the
		// verification latency the packet waits out.
		v = r.plane.InstallToken(ts, &in)
	}
	switch v.Action {
	case dataplane.ActionDrop:
		r.dropAcct(v.Reason, inf, v.Account)
		return
	case dataplane.ActionTree:
		r.fanoutTree(inf, &seg, rest)
		return
	case dataplane.ActionFailover:
		r.failover(inf, &seg, v, depth)
		return
	}
	// Mirror the stripped segment onto the trailer (§6.2 byte surgery),
	// shared with forwardBatch so the surgery is identical by
	// construction.
	f, ok := r.mirrorHop(&inf, &seg, rest, ts)
	if !ok {
		r.drop(stats.DropNotSirpent, inf)
		return
	}
	if v.Action == dataplane.ActionLocal {
		r.plane.Local(inf.port, f.Trace, inf.arrived)
		if r.local != nil {
			r.local(f.Pkt)
		} else {
			f.release()
		}
		return
	}
	// The forward hop is appended BEFORE the push: the ring push
	// transfers ownership of the record with the buffer, and touching it
	// after a successful push would race the next hop. A failed push
	// returns ownership, and drop then appends the terminal hop after
	// this one — the record reads "attempted forward, then dropped".
	r.plane.TraceForward(f.Trace, inf.port, v.OutPort, inf.arrived)
	switch r.trySend(v.OutPort, f) {
	case txOK:
		r.counters.forwarded.Add(1)
	case txFull:
		r.drop(stats.DropQueueFull, inFrame{port: inf.port, frame: f, arrived: inf.arrived})
	case txNoPort:
		r.drop(stats.DropBadPort, inFrame{port: inf.port, frame: f, arrived: inf.arrived})
	case txDown:
		r.drop(stats.DropTxError, inFrame{port: inf.port, frame: f, arrived: inf.arrived})
	}
}

// failover realizes an ActionFailover verdict on the wire substrate:
// record the diversion, splice the chosen alternate over the remaining
// forward route in the frame's own buffer (SpliceAltRoute — in place
// unless the branch header outgrows the buffer's capacity), and
// re-enter the forward path on the branch head, which carries its own
// token. The no-failover path never reaches here, so its 0 allocs/hop
// contract is untouched.
func (r *Router) failover(inf inFrame, seg *viper.Segment, v dataplane.Verdict, depth int) {
	if depth >= dataplane.MaxFailoverDepth {
		r.drop(stats.DropLinkDown, inf)
		return
	}
	r.plane.Failover(inf.port, seg.Port, v.OutPort, v.AltRank, inf.frame.Trace, inf.arrived)
	old := inf.frame.Pkt
	out, err := dataplane.SpliceAltRoute(old, v.AltRoute)
	if err != nil {
		r.drop(stats.DropNotSirpent, inf)
		return
	}
	f := inf.frame
	f.Pkt = out
	if len(old) > 0 && len(out) > 0 && &out[0] != &old[0] {
		// The splice outgrew the buffer and reallocated: out starts a
		// fresh array (its own recycling target); the old buffer, still
		// aliased by the arrival header, is left to the collector.
		f.buf = out[:0]
	}
	r.forwardDepth(inFrame{port: inf.port, frame: f, arrived: inf.arrived}, depth+1)
}

// fanoutTree handles tree-structured multicast (§2): fan one copy of the
// packet down each branch by splicing the branch's segments in front of
// the remaining bytes. Each branch gets its own pooled buffer (and its
// own header copy — forwarding swaps headers in place, so branches must
// not share one); the original buffer is recycled after the fanout. A
// traced packet's record ends here: branches run on concurrent paths
// and must not share one record, so they continue untraced.
func (r *Router) fanoutTree(inf inFrame, seg *viper.Segment, rest []byte) {
	branches, err := viper.DecodeTree(seg.PortInfo)
	if err != nil {
		r.drop(stats.DropBadPort, inf)
		return
	}
	r.plane.CloseFanout(inf.frame.Trace, inf.port, seg.Port, inf.arrived)
	inf.frame.Trace = nil
	for _, br := range branches {
		headLen := 0
		for i := range br {
			headLen += br[i].WireLen()
		}
		buf := pool.Get(headLen + len(rest) + frameHeadroom(len(br), headLen))
		full := buf
		ok := true
		for i := range br {
			if buf, err = viper.AppendSegment(buf, &br[i]); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			r.drop(stats.DropBadPort, inFrame{port: inf.port, frame: Frame{Pkt: buf, buf: full}})
			continue
		}
		buf = append(buf, rest...)
		var hdr []byte
		if inf.frame.Hdr != nil {
			hdr = append([]byte(nil), inf.frame.Hdr...)
		}
		r.forwardDepth(inFrame{port: inf.port, frame: Frame{Hdr: hdr, Pkt: buf, buf: full}}, 0)
	}
	inf.frame.release()
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
// that retain the payload must copy it. ReturnRoute is deep-copied and
// safe to keep: it is the one allocation a delivery makes, two when the
// route carries tokens or headers (viper.DecodeDelivery).
type Delivery struct {
	Data        []byte
	ReturnRoute []viper.Segment
	Endpoint    uint8
}

// Host is a goroutine Sirpent endpoint.
type Host struct {
	*node
	netw     *Network
	mu       sync.Mutex
	handlers map[uint8]func(Delivery)
	raw      atomic.Pointer[func(pkt []byte, ctx trace.Context)] // pre-decode tap, see SetRawHandler/SetRawTap
}

// NewHost creates and starts a host goroutine; one goroutine receives on
// all the host's ports, so deliveries to one host stay ordered.
func (n *Network) NewHost(name string) *Host {
	h := &Host{node: n.newNode(name), netw: n, handlers: make(map[uint8]func(Delivery))}
	n.nodes = append(n.nodes, h.node)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		h.run(h.receiveBatch)
	}()
	return h
}

func (h *Host) base() *node { return h.node }

// Handle registers a delivery handler for a host endpoint. Handlers run
// on the host's goroutine.
func (h *Host) Handle(endpoint uint8, fn func(Delivery)) {
	h.mu.Lock()
	h.handlers[endpoint] = fn
	h.mu.Unlock()
}

// Send originates a packet along a source route (sender directive
// first, as in the simulator's Host). The wire image is assembled
// directly into a pooled buffer by the same machinery NewSender uses
// for its prepared template — no route clone, no intermediate Packet —
// with enough headroom for every hop's trailer growth, so injection
// and the frame's whole transit are allocation-free in steady state
// (pinned by TestSendAllocs).
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
	if len(route) == 0 {
		return fmt.Errorf("livenet: empty route")
	}
	own := route[0]
	rest := route[1:]
	headerLen := routeWireLen(rest)
	buf := pool.Get(wireImageLen(rest, len(data), own.Priority) + frameHeadroom(len(rest), headerLen))
	b, err := appendWireImage(buf, rest, data, endpoint, own.Priority)
	if err != nil {
		pool.Put(buf)
		return err
	}
	f := Frame{Pkt: b, buf: b[:0]}
	if len(own.PortInfo) > 0 {
		// Copied, not aliased: the first-hop router swaps the header in
		// place, and the caller's route must not be scribbled on.
		f.Hdr = append([]byte(nil), own.PortInfo...)
	}
	if pt := trace.Start(h.netw.cfg.tracer, data); pt != nil {
		// Origin hop appended before the send — ownership of the record
		// transfers with the frame (see Frame.Trace).
		pt.Add(trace.HopEvent{
			Node: h.name, OutPort: own.Port, Action: trace.ActionForward,
			At: clock.Wall.NowNanos(),
		})
		f.Trace = pt
	}
	if !h.send(own.Port, f) {
		if f.Trace != nil {
			f.Trace.Add(trace.HopEvent{
				Node: h.name, Action: trace.ActionDrop, Reason: stats.DropTxError,
				At: clock.Wall.NowNanos(),
			})
			f.Trace.Done()
		}
		f.release()
		return fmt.Errorf("livenet: no interface %d on %s", own.Port, h.name)
	}
	return nil
}

// SendRaw transmits an already-encoded VIPER packet on one of the
// host's interfaces, exactly as received: no route interpretation, no
// segment strip, no origin trailer. It is the injection half of an
// encapsulation gateway (internal/udpnet, §2.3's "one logical hop"
// story): bytes that crossed a foreign transport re-enter the Sirpent
// network here, and the adjacent node sees an ordinary arrival on its
// end of the link. The bytes are copied into a pooled buffer with
// forwarding headroom; the caller keeps pkt.
func (h *Host) SendRaw(ifPort uint8, pkt []byte) error {
	return h.SendRawTraced(ifPort, pkt, trace.Context{})
}

// SendRawTraced is SendRaw for packets that arrived with a
// cross-process trace context: when ctx is valid and the network's
// tracer can resume foreign traces (trace.Resumer), the injected frame
// carries a resumed record, so the packet's transit of *this* process
// is recorded under the same cluster-wide trace ID it left the
// previous process with. With a zero ctx or a non-resuming tracer it
// behaves exactly like SendRaw.
func (h *Host) SendRawTraced(ifPort uint8, pkt []byte, ctx trace.Context) error {
	buf := pool.Get(len(pkt) + frameHeadroom(4, len(pkt)))
	buf = append(buf, pkt...)
	f := Frame{Pkt: buf, buf: buf[:0]}
	if ctx.Valid() {
		if pt := trace.Resume(h.netw.cfg.tracer, ctx); pt != nil {
			pt.Add(trace.HopEvent{
				Node: h.name, OutPort: ifPort, Action: trace.ActionForward,
				At: clock.Wall.NowNanos(),
			})
			f.Trace = pt
		}
	}
	if !h.send(ifPort, f) {
		if f.Trace != nil {
			f.Trace.Add(trace.HopEvent{
				Node: h.name, Action: trace.ActionDrop, Reason: stats.DropTxError,
				At: clock.Wall.NowNanos(),
			})
			f.Trace.Done()
		}
		f.release()
		return fmt.Errorf("livenet: no interface %d on %s", ifPort, h.name)
	}
	return nil
}

// closeReceive ends a traced frame's record at this host; action is
// ActionLocal on delivery, ActionDrop with a reason otherwise.
func (h *Host) closeReceive(inf inFrame, action trace.Action, reason stats.DropReason) {
	pt := inf.frame.Trace
	if pt == nil {
		return
	}
	now := clock.Wall.NowNanos()
	pt.Add(trace.HopEvent{
		Node: h.name, InPort: inf.port, Action: action, Reason: reason,
		At: now, LatencyNs: now - inf.arrived,
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

func (h *Host) receive(inf inFrame) {
	if fn := h.rawTap(); fn != nil {
		// A traced frame hands its cross-process context to the tap
		// before the record closes, so an encapsulation gateway can
		// carry the trace onto its foreign transport. Untraced frames
		// pass the zero Context — a stack value, no allocation.
		var ctx trace.Context
		if pt := inf.frame.Trace; pt != nil {
			ctx = pt.Ctx
		}
		h.closeReceive(inf, trace.ActionLocal, 0)
		fn(inf.frame.Pkt, ctx)
		inf.frame.release()
		return
	}
	var inInfo []byte
	if inf.frame.Hdr != nil && ethernet.SwapInPlace(inf.frame.Hdr) == nil {
		// The frame — header included — is ours until the handler
		// returns, so the swap happens in place; DecodeDelivery copies
		// the swapped header into the return route.
		inInfo = inf.frame.Hdr
	}
	seg, data, ret, err := viper.DecodeDelivery(inf.frame.Pkt, inf.port, inInfo)
	if err != nil {
		h.closeReceive(inf, trace.ActionDrop, stats.DropNotSirpent)
		h.recordDrop(inf.port, stats.DropNotSirpent)
		inf.frame.release()
		return
	}
	h.mu.Lock()
	fn := h.handlers[seg.Port]
	h.mu.Unlock()
	if fn != nil {
		h.closeReceive(inf, trace.ActionLocal, 0)
		fn(Delivery{Data: data, ReturnRoute: ret, Endpoint: seg.Port})
	} else {
		h.closeReceive(inf, trace.ActionDrop, stats.DropBadPort)
		h.recordDrop(inf.port, stats.DropBadPort)
	}
	inf.frame.release()
}
