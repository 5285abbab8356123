package livenet

// This file is livenet's dataplane. Each network's routers share one
// forwarding worker; each host has a goroutine of its own. A link
// between two routers on the same worker is fused: flushTx hands the
// whole batch accumulated for that output port to the next router, and
// the worker runs it from its work-list. Every other link direction is
// a single-producer / single-consumer frame ring (internal/ring) with
// doorbells. Routers decide whole batches through dataplane.DecideBatch
// and flush the results port by port; hosts deliver them in order. The
// per-frame work — byte surgery, trace hops, flight events — happens
// frame by frame in arrival order; what amortizes is everything around
// it: one ring publish or one hand-off per output port per batch, and
// one counter flush per batch. A frame is one pooled object (frame,
// livenet.go), so every one of those moves — ring slot, work-list,
// accumulator, host batch — copies a pointer, never the frame.
//
// Concurrency discipline:
//
//   - Receive: every ring has exactly one consumer — the goroutine
//     draining the node its receive end was wired to (addRx): the host's
//     own, or the router's worker. That is the single-consumer half of
//     the ring contract, held structurally.
//   - Transmit: any worker (and any host goroutine) may push to a ring;
//     the producer side is serialized by pipe.mu, taken once per batch
//     flush, which turns the SPSC ring into an MPSC queue. A fused link
//     has one producer and one consumer, both run by the same worker,
//     so its hand-off takes no lock at all.
//   - Sleep/wake: a producer publishes frames and then rings the
//     consumer's doorbell (cap-1 channel, non-blocking send); a consumer
//     pops and then rings the pipe's space doorbell the same way. A
//     worker sleeps only after a full sweep of its rings popped nothing
//     and its work-list is empty, and any push after its last pop leaves
//     a doorbell token behind, so wakeups are never lost. Neither side
//     ever spins.
//
// Ordering: frames bound for the same output port flush in arrival
// order — a fanout branch or failover frame at its parent's position —
// and a fused hand-off appends them to the next router's input in that
// order, so per-flow FIFO is preserved. Frames of one batch bound for
// different ports may overtake each other, as frames of concurrent
// routers interleave anyway.
//
// See DESIGN.md §11 for the batch contract and the ring-depth rule.

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/dataplane"
	"repro/internal/ethernet"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viper"
)

// batchSize bounds how many frames one batched dequeue, decision pass,
// or transmit flush covers. Partial batches are processed immediately,
// never held back to fill.
const batchSize = 64

// pipe is one direction of a link. port is the consumer's arrival port;
// link carries the fault-injection lottery, drawn when the consumer
// takes the frame (at dequeue, or at a fused hand-off).
type pipe struct {
	r    *ring.SPSC[*frame] // nil on a fused link
	port uint8
	link *Link

	// A fused link's consumer router, on the producer's worker; depth
	// bounds held, the frames handed over and not yet consumed. held is
	// owned by that worker.
	to    *Router
	depth int
	held  int

	// mu serializes producers; a batch flush locks it once for the whole
	// push, which is the MPSC discipline TestHammerMutexedProducers pins.
	mu sync.Mutex

	// bell wakes the consumer's goroutine after a publish; set by addRx
	// when the pipe is wired to its (single) consumer.
	bell chan struct{}
	// space wakes a backpressured producer after a pop frees slots.
	space chan struct{}
	// rdone is the consumer's done channel: producers blocked on a full
	// ring must not outlive the consumer.
	rdone <-chan struct{}
}

func newPipe(depth int, port uint8, link *Link, rcv *node) *pipe {
	return &pipe{
		r:     ring.New[*frame](depth),
		port:  port,
		link:  link,
		space: make(chan struct{}, 1),
		rdone: rcv.done,
	}
}

// newFusedPipe is a link direction between two routers on one worker:
// no ring, no doorbell, no producer lock. Its depth rounds up as a
// ring's does, so WithDepth means the same on either kind of link.
func newFusedPipe(depth int, port uint8, link *Link, to *Router) *pipe {
	d := 2
	for d < depth {
		d <<= 1
	}
	return &pipe{port: port, link: link, to: to, depth: d}
}

// push transfers one frame into the ring, parking on the space doorbell
// under backpressure until the consumer frees a slot or either end shuts
// down. It reports whether the frame transferred: if so, ownership moved
// to the consumer; if not, the caller keeps it.
func (p *pipe) push(f *frame, sdone <-chan struct{}) bool {
	for {
		p.mu.Lock()
		ok := p.r.TryPush(f)
		p.mu.Unlock()
		if ok {
			p.ring()
			return true
		}
		select {
		case <-p.space:
		case <-sdone:
			return false
		case <-p.rdone:
			return false
		}
	}
}

// ring wakes the consumer's worker after a publish; a token already
// pending covers this publish too.
func (p *pipe) ring() {
	select {
	case p.bell <- struct{}{}:
	default:
	}
}

// tryPush is push without the park: it transfers what fits and returns
// immediately. Router transmits (flushTx) use it, and the overflow is
// dropped DropQueueFull, as the simulation substrate's outport does.
// This is what keeps the mesh deadlock-free: a blocking router transmit
// lets two adjacent routers wedge each other under bidirectional
// saturation (each parked on the other's full ring, so neither drains),
// a circular wait no amount of ring depth removes. Hosts keep the
// blocking push — their backpressure cannot cycle because routers
// always drain.
func (p *pipe) tryPush(frames []*frame) int {
	p.mu.Lock()
	n := p.r.PushBatch(frames)
	p.mu.Unlock()
	if n > 0 {
		p.ring()
	}
	return n
}

// pop drains up to len(dst) frames and, if anything moved, rings the
// space doorbell so a parked producer resumes. Consumer-side only.
func (p *pipe) pop(dst []*frame) int {
	n := p.r.PopBatch(dst)
	if n > 0 {
		select {
		case p.space <- struct{}{}:
		default:
		}
	}
	return n
}

// shut closes the ring to producers and recycles the frames still in
// it. Network.Stop calls it once the ring's consumer has exited: the
// close is taken under the producer lock, so a push either landed
// before it, and is recycled here, or fails, and its sender keeps the
// frame.
func (p *pipe) shut() {
	p.mu.Lock()
	p.r.Close()
	p.mu.Unlock()
	var dst [batchSize]*frame
	for n := p.r.PopBatch(dst[:]); n > 0; n = p.r.PopBatch(dst[:]) {
		for _, f := range dst[:n] {
			f.release()
		}
	}
}

// addRx wires a receive pipe to the node's consumer and publishes the
// node's ring list copy-on-write. The doorbell ring at the end makes a
// pipe wired after traffic started visible to an already-sleeping
// consumer.
func (nd *node) addRx(p *pipe) {
	nd.mu.Lock()
	p.bell = nd.bell
	var list []*pipe
	if old := nd.rx.Load(); old != nil {
		list = append(list, *old...)
	}
	list = append(list, p)
	nd.rx.Store(&list)
	nd.mu.Unlock()
	p.ring()
}

// rxPipes returns the node's receive rings.
func (nd *node) rxPipes() []*pipe {
	if pl := nd.rx.Load(); pl != nil {
		return *pl
	}
	return nil
}

// addTx wires a transmit pipe to an output port and publishes the
// node's port table copy-on-write; the pipe's link is the port's fault
// handle for the dataplane's link-health hook.
func (nd *node) addTx(port uint8, p *pipe) {
	nd.mu.Lock()
	var table []*pipe
	if old := nd.ports.Load(); old != nil {
		table = append(table, *old...)
	}
	if int(port) >= len(table) {
		table = append(table, make([]*pipe, int(port)+1-len(table))...)
	}
	table[port] = p
	nd.ports.Store(&table)
	nd.mu.Unlock()
}

// drainPipe pops up to one batch from p, draws the link's fault lottery
// per frame, tags the survivors with their arrival port (and traced
// ones with their arrival stamp), and appends them to sc.in. The return
// value counts everything popped — survivors and casualties — so the
// caller can tell an empty pipe from a lossy one.
func (nd *node) drainPipe(p *pipe, sc *batchScratch) int {
	n := p.pop(sc.tmp)
	for _, f := range sc.tmp[:n] {
		if p.link.drops() {
			lost(f, nd.name, p.port)
			continue
		}
		f.port, f.arrived = p.port, stamp(f.pt)
		sc.in = append(sc.in, f)
	}
	return n
}

// lost ends a frame the link's fault lottery discarded on its way into
// node at port: a traced record closes on an ActionLost hop there.
func lost(f *frame, node string, port uint8) {
	if f.pt != nil {
		f.pt.Add(trace.HopEvent{
			Node: node, InPort: port, Action: trace.ActionLost,
			At: clock.Wall.NowNanos(),
		})
		f.pt.Done()
	}
	f.release()
}

// stamp is a frame's arrival time: the wall clock for traced frames (pt
// is the frame's record), 0 for the rest — the untraced path performs no
// clock reads.
func stamp(pt *trace.PacketTrace) int64 {
	if pt != nil {
		return clock.Wall.NowNanos()
	}
	return 0
}

// batchScratch is one consumer's reusable batch state. Only the pop
// destination is sized up front; every other slice grows on demand to
// the load the consumer actually sees (a host never touches the router's
// kernel view or transmit accumulators), and after warmup a steady-state
// batch allocates nothing (TestForwardHopAllocsBatched). Every slice of
// frames holds pointers; a slot past a slice's length may still point
// at a frame since recycled, and nothing reads it.
type batchScratch struct {
	tmp     []*frame               // pop destination; its length bounds a drain
	in      []*frame               // the batch to decide: drained, or handed over on fused links
	bf      []dataplane.BatchFrame // the kernel's view of sc.in, overwritten batch by batch
	bs      dataplane.BatchStats
	tx      [][]*frame // per output port, indexed by port: this batch's outbound frames
	touched []uint8    // ports with frames in tx this batch
}

func newBatchScratch() *batchScratch {
	return &batchScratch{tmp: make([]*frame, batchSize)}
}

// worker is a network's forwarding goroutine: it runs every router of
// the network. It sweeps the routers' receive rings, popping up to
// batchSize frames from each, and runs each drained batch to completion
// before it pops again: whatever a router hands to a router on a fused
// link waits on the work-list, and the worker empties that list first,
// so a batch crosses every fused hop whole. It sleeps on its doorbell
// when a sweep comes up empty.
type worker struct {
	done    chan struct{}
	bell    chan struct{}
	once    sync.Once
	routers atomic.Pointer[[]*Router] // copy-on-write at NewRouter
	started bool                      // set by the network's constructing goroutine

	// work lists the routers with input handed over and not yet
	// forwarded, in hand-off order from head on; owned by the worker.
	work []*Router
	head int
}

func newWorker() *worker {
	return &worker{done: make(chan struct{}), bell: make(chan struct{}, 1)}
}

func (w *worker) close() { w.once.Do(func() { close(w.done) }) }

// add publishes a router to the worker's sweep, copy-on-write.
func (w *worker) add(r *Router) {
	var list []*Router
	if old := w.routers.Load(); old != nil {
		list = append(list, *old...)
	}
	list = append(list, r)
	w.routers.Store(&list)
}

func (w *worker) run() {
	for {
		select {
		case <-w.done:
			return
		default:
		}
		if w.sweep() == 0 {
			select {
			case <-w.bell:
			case <-w.done:
				return
			}
		}
	}
}

// sweep drains every router's receive rings once, forwarding each
// drained batch and everything it hands on; it reports how many frames
// it popped.
func (w *worker) sweep() int {
	popped := 0
	if rl := w.routers.Load(); rl != nil {
		for _, r := range *rl {
			for _, p := range r.rxPipes() {
				popped += r.drainPipe(p, r.sc)
				if len(r.sc.in) > 0 {
					r.forwardBatch(r.sc)
					w.runWork()
				}
			}
		}
	}
	return popped
}

// step forwards the input handed to the router at the head of the
// work-list, as one batch, and returns that router; nil when the list
// is empty.
func (w *worker) step() *Router {
	if w.head == len(w.work) {
		w.work, w.head = w.work[:0], 0
		return nil
	}
	r := w.work[w.head]
	w.work[w.head] = nil
	w.head++
	for _, p := range r.fedBy {
		p.held = 0
	}
	clear(r.fedBy)
	r.fedBy = r.fedBy[:0]
	r.forwardBatch(r.sc)
	return r
}

// runWork steps the work-list until it is empty.
func (w *worker) runWork() {
	for w.step() != nil {
	}
}

// shut recycles every frame handed over and not yet forwarded, and
// what the worker's routers' receive rings still hold. Network.Stop
// calls it once every node of the network has exited.
func (w *worker) shut() {
	for _, r := range w.work[w.head:] {
		for _, f := range r.sc.in {
			f.release()
		}
		r.sc.in = r.sc.in[:0]
	}
	if rl := w.routers.Load(); rl != nil {
		for _, r := range *rl {
			r.node.shut()
		}
	}
}

// run is a host's receive loop: sweep the host's rings, delivering each
// drained batch in order, and sleep on the doorbell when a sweep comes
// up empty.
func (h *Host) run() {
	sc := newBatchScratch()
	for {
		select {
		case <-h.done:
			return
		default:
		}
		popped := 0
		for _, p := range h.rxPipes() {
			popped += h.drainPipe(p, sc)
			h.receiveBatch(sc)
		}
		if popped == 0 {
			select {
			case <-h.bell:
			case <-h.done:
				return
			}
		}
	}
}

// mirrorHop performs the §6.2 software-router byte surgery for one
// authorized frame — swap the arrival header in place, build the
// mirrored return segment, append it over the trailer descriptor — and
// turns f into the next-hop frame in the same buffer. It reports false,
// leaving the frame's buffer as it was, when the bytes are malformed
// (the caller drops DropNotSirpent). rev is the verdict's knowledge of
// the token's reverse use.
func (r *Router) mirrorHop(f *frame, seg *viper.Segment, rest []byte, rev dataplane.Reverse, ts *dataplane.TokenState) bool {
	// The frame is ours, so the header is swapped in place and aliased;
	// the mirrored append below copies the bytes into the trailer.
	var hdrInfo []byte
	if f.hdr != nil {
		if err := ethernet.SwapInPlace(f.hdr); err != nil {
			return false
		}
		hdrInfo = f.hdr
	}
	var ret viper.Segment
	dataplane.ReturnSegment(&ret, f.port, seg, hdrInfo, rev, ts.Cache(), false)
	// ret's fields alias the dead front region (token, header); the
	// append writes only past the old trailer descriptor — disjoint.
	out, err := dataplane.AppendTrailerSegment(rest, &ret)
	if err != nil {
		return false
	}
	var next []byte
	if len(seg.PortInfo) > 0 {
		// The next hop's header aliases the stripped segment's bytes in
		// the dead front region; it travels with the buffer it aliases. A
		// DAG segment's PortInfo is the alternate blob — its primary
		// network header is embedded inside and extracted without copying.
		if viper.IsDAGSegment(seg) {
			pi, ok := viper.DAGPrimaryInfo(seg)
			if !ok {
				return false
			}
			if len(pi) > 0 {
				next = pi
			}
		} else {
			next = seg.PortInfo
		}
	}
	if len(rest) > 0 && len(out) > 0 && &out[0] != &rest[0] {
		// The headroom ran out and the append reallocated: out starts a
		// fresh array (its own recycling target), and the old buffer —
		// still aliased by the header and token — is left to the
		// collector.
		f.buf = out[:0]
	}
	f.pkt, f.hdr = out, next
	return true
}

// forwardBatch runs one batch — drained from a ring, or handed over on
// fused links — through the batched hop kernel and flushes the results
// port by port. Decisions (DecideBatch) and counter publication
// (FlushBatch) amortize across the batch; the per-frame sinks — flight
// events, trace hops, the byte surgery itself — run frame-at-a-time in
// arrival order. Token deferrals resolve in batch order
// (InstallTokenBatched), so the charge sequence matches N one-frame
// decisions. sc.in is emptied before the flush, so a fused hand-off may
// adopt it — even this router's own, over a looped link.
func (r *Router) forwardBatch(sc *batchScratch) {
	ts := r.tok.Load()
	sc.bf = slices.Grow(sc.bf[:0], len(sc.in))[:len(sc.in)]
	for i, f := range sc.in {
		kernelFrame(&sc.bf[i], f)
	}
	r.plane.DecideBatch(ts, sc.bf, &sc.bs)
	for i, f := range sc.in {
		r.dispose(sc, ts, f, &sc.bf[i], 0)
	}
	// Every frame has been queued on its port's accumulator, delivered
	// or dropped. The kernel's slots are overwritten by the next batch,
	// so neither slice is cleared.
	sc.in = sc.in[:0]
	r.flushTx(sc)
	r.plane.FlushBatch(&sc.bs)
}

// kernelFrame fills the caller's half of a frame's slot in the batch
// kernel; DecideBatch overwrites the rest. The charge size matches the
// simulator's FrameSize: the full pre-strip packet plus the arrival
// Ethernet header, so per-account byte totals agree across substrates.
func kernelFrame(b *dataplane.BatchFrame, f *frame) {
	cb := uint64(len(f.pkt))
	if f.hdr != nil {
		cb += ethernet.HeaderLen
	}
	b.InPort, b.ChargeBytes, b.Pkt = f.port, cb, f.pkt
}

// dispose settles one decided frame: it drops it, delivers it locally,
// fans it out, fails it over, or mirrors it and queues it on its output
// port's accumulator. Drops and local deliveries count into sc.bs and
// forwards leave through the accumulators, so FlushBatch is the router's
// only counter publication and flushTx its only transmit. depth counts
// the failover branches the frame has already taken at this router.
func (r *Router) dispose(sc *batchScratch, ts *dataplane.TokenState, f *frame, b *dataplane.BatchFrame, depth int) {
	v := &b.Verdict
	if v.Action == dataplane.ActionAwaitToken {
		// Block mode: the uncached token verifies synchronously, in
		// batch order — the HMAC computation is the verification
		// latency the frame waits out.
		in := dataplane.HopInput{InPort: b.InPort, Seg: &b.Seg, ChargeBytes: b.ChargeBytes}
		*v = r.plane.InstallTokenBatched(ts, &in, &sc.bs)
	}
	switch v.Action {
	case dataplane.ActionDrop:
		r.discard(sc, v.Reason, v.Account, f)
		return
	case dataplane.ActionTree:
		r.fanoutTree(sc, ts, f, &b.Seg, b.Rest)
		return
	case dataplane.ActionFailover:
		r.failover(sc, ts, f, &b.Seg, v, depth)
		return
	}
	if !r.mirrorHop(f, &b.Seg, b.Rest, v.Reverse, ts) {
		r.discard(sc, stats.DropNotSirpent, 0, f)
		return
	}
	if v.Action == dataplane.ActionLocal {
		r.plane.LocalBatched(&sc.bs, f.port, f.pt, f.arrived)
		f.release()
		return
	}
	// The forward hop is traced now but transmitted at flush; the worker
	// owns the frame until the ring push or hand-off publishes it, so the
	// append-before-send rule holds.
	r.plane.TraceForward(f.pt, f.port, v.OutPort, f.arrived)
	sc.accumulate(v.OutPort, f)
}

// reenter runs a frame made mid-batch — a fanout branch copy or a
// spliced failover frame — through the same disposal as a drained one:
// decided over a one-slot sub-batch, counted into sc.bs, and queued at
// its parent's position, so frames bound for one port still leave in
// arrival order.
func (r *Router) reenter(sc *batchScratch, ts *dataplane.TokenState, f *frame, depth int) {
	var one [1]dataplane.BatchFrame
	kernelFrame(&one[0], f)
	r.plane.DecideBatch(ts, one[:], &sc.bs)
	r.dispose(sc, ts, f, &one[0], depth)
}

// discard accounts one dropped frame into the batch — counter deferred
// to FlushBatch, flight event and trace terminal hop now — and recycles
// it. account names the refused token account, 0 otherwise.
func (r *Router) discard(sc *batchScratch, reason stats.DropReason, account uint32, f *frame) {
	r.plane.DropBatched(&sc.bs, reason, f.port, account, f.pt, f.arrived)
	f.release()
}

// failover realizes an ActionFailover verdict on the wire substrate:
// record the diversion, splice the chosen alternate over the remaining
// forward route in the frame's own buffer (SpliceAltRoute — in place
// unless the branch header outgrows the buffer's capacity), and
// re-enter on the branch head, which carries its own token. The
// re-entered frame carries depth+1; the cap stops a crafted alternate
// whose head is itself a dead-primary DAG segment from cycling forever.
// The no-failover path never reaches here, so its 0 allocs/hop contract
// is untouched.
func (r *Router) failover(sc *batchScratch, ts *dataplane.TokenState, f *frame, seg *viper.Segment, v *dataplane.Verdict, depth int) {
	if depth >= dataplane.MaxFailoverDepth {
		r.discard(sc, stats.DropLinkDown, 0, f)
		return
	}
	r.plane.Failover(f.port, seg.Port, v.OutPort, v.AltRank, f.pt, f.arrived)
	old := f.pkt
	out, err := dataplane.SpliceAltRoute(old, v.AltRoute)
	if err != nil {
		r.discard(sc, stats.DropNotSirpent, 0, f)
		return
	}
	f.pkt = out
	if len(old) > 0 && len(out) > 0 && &out[0] != &old[0] {
		// The splice outgrew the buffer and reallocated: out starts a
		// fresh array (its own recycling target); the old buffer, still
		// aliased by the arrival header, is left to the collector.
		f.buf = out[:0]
	}
	r.reenter(sc, ts, f, depth+1)
}

// fanoutTree handles tree-structured multicast (§2): fan one copy of the
// packet down each branch by splicing the branch's segments in front of
// the remaining bytes, and re-enter each copy in branch order. Each
// branch is a frame of its own, with a copy of the arrival header at
// its buffer's front (forwarding swaps headers in place, so branches
// must not share one); the original frame is recycled after the fanout.
// A traced packet's record ends here: branches run on concurrent paths
// and must not share one record, so they continue untraced.
func (r *Router) fanoutTree(sc *batchScratch, ts *dataplane.TokenState, f *frame, seg *viper.Segment, rest []byte) {
	branches, err := viper.DecodeTree(seg.PortInfo)
	if err != nil {
		r.discard(sc, stats.DropBadPort, 0, f)
		return
	}
	r.plane.CloseFanout(f.pt, f.port, seg.Port, f.arrived)
	for _, br := range branches {
		headLen := 0
		for i := range br {
			headLen += br[i].WireLen()
		}
		branch, buf := newFrame(f.hdr, headLen+len(rest)+frameHeadroom(len(br), headLen))
		branch.port = f.port
		for i := range br {
			if buf, err = viper.AppendSegment(buf, &br[i]); err != nil {
				break
			}
		}
		if err != nil {
			r.discard(sc, stats.DropBadPort, 0, branch)
			continue
		}
		branch.pkt = append(buf, rest...)
		r.reenter(sc, ts, branch, 0)
	}
	f.release()
}

// accumulate appends an outbound frame to its port's transmit batch.
// tx is indexed by port and persists across batches (a router's port set
// is stable); touched records which ports hold frames this batch. The
// frame keeps its INBOUND port and arrival stamp until the consumer
// re-tags it, so a failed transmit is drop-accounted against its
// arrival.
func (sc *batchScratch) accumulate(port uint8, f *frame) {
	if int(port) >= len(sc.tx) {
		sc.tx = append(sc.tx, make([][]*frame, int(port)+1-len(sc.tx))...)
	}
	if len(sc.tx[port]) == 0 {
		sc.touched = append(sc.touched, port)
	}
	sc.tx[port] = append(sc.tx[port], f)
}

// flushTx transmits every accumulated output batch: one port-table
// lookup and one ring push or fused hand-off per port per batch. Neither
// ever parks: frames that do not fit are dropped DropQueueFull like the
// simulation outport, which keeps router workers from wedging against
// each other on full rings. DropBadPort covers an unwired port,
// DropTxError a shutdown race. The trace record of a failed frame
// already carries its forward hop, so it reads "attempted forward, then
// dropped".
func (r *Router) flushTx(sc *batchScratch) {
	for _, port := range sc.touched {
		items := sc.tx[port]
		p := r.outPipe(port)
		sent := 0
		reason := stats.DropBadPort
		switch {
		case p == nil:
		case p.to != nil:
			sc.tx[port] = r.handOff(sc, p, items)
			continue
		default:
			sent = p.tryPush(items)
			r.counters.forwarded.Add(uint64(sent))
			reason = stats.DropQueueFull
			select {
			case <-r.done:
				reason = stats.DropTxError
			default:
			}
		}
		for _, f := range items[sent:] {
			r.discard(sc, reason, 0, f)
		}
		sc.tx[port] = items[:0]
	}
	sc.touched = sc.touched[:0]
}

// handOff moves one output port's batch across a fused link to the
// router at its far end, and queues that router on the worker's
// work-list. It keeps every property of a ring: at most depth frames
// are held at the far end (the excess drops DropQueueFull here), the
// link's fault lottery is drawn per frame as a dequeue draws it (a lost
// frame holds no slot, as the dequeue that loses it frees its slot),
// survivors are re-tagged with their arrival port and, when traced,
// stamped, and per-port order is kept. When the far end holds nothing
// yet, the accumulator itself becomes its input and the far end's empty
// input slice becomes the accumulator, so no pointer is copied. It
// returns the port's emptied accumulator.
func (r *Router) handOff(sc *batchScratch, p *pipe, items []*frame) []*frame {
	to := p.to
	accepted, k := 0, 0
	for _, f := range items {
		switch {
		case p.held >= p.depth:
			r.discard(sc, stats.DropQueueFull, 0, f)
		case p.link.drops():
			accepted++
			lost(f, to.name, p.port)
		default:
			accepted++
			if p.held == 0 {
				// The far end's first fused link to hold a frame puts
				// it on the work-list.
				if len(to.fedBy) == 0 {
					to.w.work = append(to.w.work, to)
				}
				to.fedBy = append(to.fedBy, p)
			}
			p.held++
			f.port, f.arrived = p.port, stamp(f.pt)
			items[k] = f
			k++
		}
	}
	r.counters.forwarded.Add(uint64(accepted))
	if k == 0 {
		return items[:0]
	}
	if len(to.sc.in) == 0 {
		items, to.sc.in = to.sc.in[:0], items[:k]
		return items
	}
	to.sc.in = append(to.sc.in, items[:k]...)
	return items[:0]
}

// receiveBatch delivers one drained batch in arrival order and empties
// it: whole to the raw tap when one is installed, else frame by frame.
func (h *Host) receiveBatch(sc *batchScratch) {
	if fn := h.raw.Load(); fn != nil && len(sc.in) > 0 {
		h.tap(*fn, sc.in)
	} else {
		for _, f := range sc.in {
			h.receive(f)
		}
	}
	sc.in = sc.in[:0]
}

// tap hands a batch to the raw tap fn in one call and releases its
// frames once fn returns. A traced frame gives the tap its
// cross-process context, taken before its record closes here, so an
// encapsulation gateway can carry the trace onto its foreign transport.
func (h *Host) tap(fn func([]RawFrame), in []*frame) {
	b := h.tapped[:0]
	for _, f := range in {
		var ctx trace.Context
		if pt := f.pt; pt != nil {
			ctx = pt.Ctx
			h.closeReceive(f, trace.ActionLocal, 0)
		}
		b = append(b, RawFrame{Pkt: f.pkt, Ctx: ctx})
	}
	h.tapped = b
	fn(b)
	for _, f := range in {
		f.release()
	}
}
