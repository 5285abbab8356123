package livenet

// This file is livenet's dataplane: links are single-producer /
// single-consumer frame rings (internal/ring), and each node's one
// worker drains whole batches — routers decide them through
// dataplane.DecideBatch and flush the results port by port, hosts
// deliver them in order. The per-frame work — byte surgery, trace hops,
// flight events — happens frame by frame in arrival order; what
// amortizes is everything around it: one ring publish per batch instead
// of one hand-off per frame, one counter flush per batch, and one
// producer lock per output port per batch.
//
// Concurrency discipline:
//
//   - Receive: every pipe has exactly one consumer — the worker of the
//     node its receive end was wired to (addRx). That is the
//     single-consumer half of the ring contract, held structurally.
//   - Transmit: any worker (and any host goroutine) may push to a pipe;
//     the producer side is serialized by pipe.mu, taken once per batch
//     flush, which turns the SPSC ring into an MPSC queue.
//   - Sleep/wake: a producer publishes frames and then rings the
//     consumer node's doorbell (cap-1 channel, non-blocking send); a
//     consumer pops and then rings the pipe's space doorbell the same
//     way. A worker sleeps only after a full sweep of its pipes popped
//     nothing, and any push after its last pop leaves a doorbell token
//     behind, so wakeups are never lost. Neither side ever spins.
//
// Ordering: frames bound for the same output port flush in arrival
// order — a fanout branch or failover frame at its parent's position —
// so per-flow FIFO is preserved. Frames of one batch bound for
// different ports may overtake each other, as frames of concurrent
// routers interleave anyway.
//
// See DESIGN.md §11 for the batch contract and the ring-depth rule.

import (
	"sync"

	"repro/internal/clock"
	"repro/internal/dataplane"
	"repro/internal/ethernet"
	"repro/internal/pool"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viper"
)

// batchSize bounds how many frames one batched dequeue, decision pass,
// or transmit flush covers. Partial batches are processed immediately,
// never held back to fill.
const batchSize = 64

// pipe is one direction of a link: a frame ring plus the doorbells that
// let both ends sleep. port is the consumer's arrival port; link carries
// the fault-injection lottery, drawn at dequeue.
type pipe struct {
	r    *ring.SPSC[Frame]
	port uint8
	link *Link

	// mu serializes producers; a batch flush locks it once for the whole
	// push, which is the MPSC discipline TestHammerMutexedProducers pins.
	mu sync.Mutex

	// bell wakes the consumer node's worker after a publish; set by addRx
	// when the pipe is wired to its (single) consumer.
	bell chan struct{}
	// space wakes a backpressured producer after a pop frees slots.
	space chan struct{}
	// rdone is the consumer node's done channel: producers blocked on a
	// full ring must not outlive the consumer.
	rdone <-chan struct{}
}

func newPipe(depth int, port uint8, link *Link, rcv *node) *pipe {
	return &pipe{
		r:     ring.New[Frame](depth),
		port:  port,
		link:  link,
		space: make(chan struct{}, 1),
		rdone: rcv.done,
	}
}

// push transfers one frame into the ring, parking on the space doorbell
// under backpressure until the consumer frees a slot or either end shuts
// down. It reports whether the frame transferred: if so, ownership moved
// to the consumer; if not, the caller keeps it.
func (p *pipe) push(f Frame, sdone <-chan struct{}) bool {
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
func (p *pipe) tryPush(frames []Frame) int {
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
func (p *pipe) pop(dst []Frame) int {
	n := p.r.PopBatch(dst)
	if n > 0 {
		select {
		case p.space <- struct{}{}:
		default:
		}
	}
	return n
}

// addRx wires a receive pipe to the node's worker and publishes the
// worker's pipe list copy-on-write. The doorbell ring at the end makes a
// pipe wired after traffic started visible to an already-sleeping worker.
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

// addTx registers a transmit pipe under an output port, and the pipe's
// link as the port's fault handle so the dataplane's link-health hook
// can consult it.
func (nd *node) addTx(port uint8, p *pipe) {
	nd.mu.Lock()
	nd.out[port] = p
	nd.links[port] = p.link
	nd.mu.Unlock()
}

// drainPipe pops up to one batch from p, draws the link's fault lottery
// per frame, stamps arrivals for traced frames, and appends the
// survivors to sc.in. The return value counts everything popped —
// survivors and casualties — so the caller can tell an empty pipe from a
// lossy one.
func (nd *node) drainPipe(p *pipe, sc *batchScratch) int {
	n := p.pop(sc.tmp)
	for i := 0; i < n; i++ {
		f := sc.tmp[i]
		sc.tmp[i] = Frame{}
		if p.link.drops() {
			if f.Trace != nil {
				f.Trace.Add(trace.HopEvent{
					Node: nd.name, InPort: p.port, Action: trace.ActionLost,
					At: clock.Wall.NowNanos(),
				})
				f.Trace.Done()
			}
			f.release()
			continue
		}
		var arrived int64
		if f.Trace != nil {
			arrived = clock.Wall.NowNanos()
		}
		sc.in = append(sc.in, inFrame{port: p.port, frame: f, arrived: arrived})
	}
	return n
}

// txAccum collects one output port's frames for a single flush. The
// inFrame wrapper keeps each frame's INBOUND port and arrival stamp so a
// failed transmit is drop-accounted against its arrival.
type txAccum struct {
	port  uint8
	items []inFrame
}

// batchScratch is one worker's reusable batch state. Only the pop
// destination is sized up front; every other slice grows on demand to
// the load the worker actually sees (a host never touches the router's
// kernel view or transmit accumulators), and after warmup a steady-state
// batch allocates nothing (TestForwardHopAllocsBatched).
type batchScratch struct {
	tmp     []Frame                // pop destination; its length bounds a drain
	in      []inFrame              // fault-lottery survivors of one drain
	bf      []dataplane.BatchFrame // the kernel's view of sc.in
	bs      dataplane.BatchStats
	txIdx   map[uint8]int // output port -> index into tx; persists across batches
	tx      []txAccum
	touched []int   // tx indices with frames this batch
	flush   []Frame // per-port push buffer
}

func newBatchScratch() *batchScratch {
	return &batchScratch{tmp: make([]Frame, batchSize)}
}

// run is a node's worker loop: sweep the node's pipes, popping up to
// batchSize frames from each, hand each drained batch (sc.in) to handle,
// and sleep on the doorbell when a full sweep comes up empty. Routers
// pass forwardBatch, hosts receiveBatch.
func (nd *node) run(handle func(sc *batchScratch)) {
	sc := newBatchScratch()
	for {
		select {
		case <-nd.done:
			return
		default:
		}
		popped := 0
		if pl := nd.rx.Load(); pl != nil {
			for _, p := range *pl {
				sc.in = sc.in[:0]
				popped += nd.drainPipe(p, sc)
				if len(sc.in) > 0 {
					handle(sc)
				}
			}
		}
		if popped == 0 {
			select {
			case <-nd.bell:
			case <-nd.done:
				return
			}
		}
	}
}

// mirrorHop performs the §6.2 software-router byte surgery for one
// authorized frame — swap the arrival header in place, build the
// mirrored return segment, append it over the trailer descriptor — and
// assembles the next-hop frame in the same buffer. ok is false when the
// bytes are malformed (the caller drops DropNotSirpent).
func (r *Router) mirrorHop(inf *inFrame, seg *viper.Segment, rest []byte, ts *dataplane.TokenState) (Frame, bool) {
	// The frame is ours, so the header is swapped in place and aliased;
	// the mirrored append below copies the bytes into the trailer.
	var hdrInfo []byte
	if inf.frame.Hdr != nil {
		if err := ethernet.SwapInPlace(inf.frame.Hdr); err != nil {
			return Frame{}, false
		}
		hdrInfo = inf.frame.Hdr
	}
	ret := dataplane.ReturnSegment(inf.port, seg, hdrInfo, ts.Cache(), false)
	// ret's fields alias the dead front region (token, header); the
	// append writes only past the old trailer descriptor — disjoint.
	out, err := dataplane.AppendTrailerSegment(rest, &ret)
	if err != nil {
		return Frame{}, false
	}
	f := Frame{Pkt: out, Trace: inf.frame.Trace, buf: inf.frame.buf}
	if len(rest) > 0 && len(out) > 0 && &out[0] != &rest[0] {
		// The headroom ran out and the append reallocated: out starts a
		// fresh array (its own recycling target), and the old buffer —
		// still aliased by the header and token — is left to the
		// collector.
		f.buf = out[:0]
	}
	if len(seg.PortInfo) > 0 {
		// The next hop's header aliases the stripped segment's bytes in
		// the dead front region; it travels with the buffer it aliases. A
		// DAG segment's PortInfo is the alternate blob — its primary
		// network header is embedded inside and extracted without copying.
		if viper.IsDAGSegment(seg) {
			pi, ok := viper.DAGPrimaryInfo(seg)
			if !ok {
				return Frame{}, false
			}
			if len(pi) > 0 {
				f.Hdr = pi
			}
		} else {
			f.Hdr = seg.PortInfo
		}
	}
	return f, true
}

// forwardBatch runs one drained batch through the batched hop kernel and
// flushes the results port by port. Decisions (DecideBatch) and counter
// publication (FlushBatch) amortize across the batch; the per-frame
// sinks — flight events, trace hops, the byte surgery itself — run
// frame-at-a-time in arrival order. Token deferrals resolve in batch
// order (InstallTokenBatched), so the charge sequence matches N
// one-frame decisions.
func (r *Router) forwardBatch(sc *batchScratch) {
	ts := r.tok.Load()
	sc.bf = sc.bf[:0]
	for i := range sc.in {
		sc.bf = append(sc.bf, kernelFrame(&sc.in[i]))
	}
	r.plane.DecideBatch(ts, sc.bf, &sc.bs)
	for i := range sc.bf {
		r.dispose(sc, ts, &sc.in[i], &sc.bf[i], 0)
	}
	r.flushTx(sc)
	r.plane.FlushBatch(&sc.bs)
	clear(sc.in)
	clear(sc.bf)
	sc.in = sc.in[:0]
	sc.bf = sc.bf[:0]
}

// kernelFrame is a frame's slot in the batch kernel. The charge size
// matches the simulator's FrameSize: the full pre-strip packet plus the
// arrival Ethernet header, so per-account byte totals agree across
// substrates.
func kernelFrame(inf *inFrame) dataplane.BatchFrame {
	cb := uint64(len(inf.frame.Pkt))
	if inf.frame.Hdr != nil {
		cb += ethernet.HeaderLen
	}
	return dataplane.BatchFrame{InPort: inf.port, ChargeBytes: cb, Pkt: inf.frame.Pkt}
}

// dispose settles one decided frame: it drops it, delivers it locally,
// fans it out, fails it over, or mirrors it and queues it on its output
// port's accumulator. Drops and local deliveries count into sc.bs and
// forwards leave through the accumulators, so FlushBatch is the router's
// only counter publication and flushTx its only transmit. depth counts
// the failover branches the frame has already taken at this router.
func (r *Router) dispose(sc *batchScratch, ts *dataplane.TokenState, inf *inFrame, b *dataplane.BatchFrame, depth int) {
	v := b.Verdict
	if v.Action == dataplane.ActionAwaitToken {
		// Block mode: the uncached token verifies synchronously, in
		// batch order — the HMAC computation is the verification
		// latency the frame waits out.
		in := dataplane.HopInput{InPort: b.InPort, Seg: &b.Seg, ChargeBytes: b.ChargeBytes}
		v = r.plane.InstallTokenBatched(ts, &in, &sc.bs)
	}
	switch v.Action {
	case dataplane.ActionDrop:
		r.discard(sc, v.Reason, v.Account, inf)
		return
	case dataplane.ActionTree:
		r.fanoutTree(sc, ts, inf, &b.Seg, b.Rest)
		return
	case dataplane.ActionFailover:
		r.failover(sc, ts, inf, &b.Seg, v, depth)
		return
	}
	f, ok := r.mirrorHop(inf, &b.Seg, b.Rest, ts)
	if !ok {
		r.discard(sc, stats.DropNotSirpent, 0, inf)
		return
	}
	if v.Action == dataplane.ActionLocal {
		r.plane.LocalBatched(&sc.bs, inf.port, f.Trace, inf.arrived)
		if r.local != nil {
			r.local(f.Pkt)
		} else {
			f.release()
		}
		return
	}
	// The forward hop is traced now but transmitted at flush; the worker
	// owns the frame until the ring push publishes it, so the
	// append-before-send rule holds.
	r.plane.TraceForward(f.Trace, inf.port, v.OutPort, inf.arrived)
	r.accumulate(sc, v.OutPort, inFrame{port: inf.port, frame: f, arrived: inf.arrived})
}

// reenter runs a frame made mid-batch — a fanout branch copy or a
// spliced failover frame — through the same disposal as a drained one:
// decided over a one-slot sub-batch, counted into sc.bs, and queued at
// its parent's position, so frames bound for one port still leave in
// arrival order.
func (r *Router) reenter(sc *batchScratch, ts *dataplane.TokenState, inf inFrame, depth int) {
	one := [1]dataplane.BatchFrame{kernelFrame(&inf)}
	r.plane.DecideBatch(ts, one[:], &sc.bs)
	r.dispose(sc, ts, &inf, &one[0], depth)
}

// discard accounts one dropped frame into the batch — counter deferred
// to FlushBatch, flight event and trace terminal hop now — and recycles
// its buffer. account names the refused token account, 0 otherwise.
func (r *Router) discard(sc *batchScratch, reason stats.DropReason, account uint32, inf *inFrame) {
	r.plane.DropBatched(&sc.bs, reason, inf.port, account, inf.frame.Trace, inf.arrived)
	inf.frame.release()
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
func (r *Router) failover(sc *batchScratch, ts *dataplane.TokenState, inf *inFrame, seg *viper.Segment, v dataplane.Verdict, depth int) {
	if depth >= dataplane.MaxFailoverDepth {
		r.discard(sc, stats.DropLinkDown, 0, inf)
		return
	}
	r.plane.Failover(inf.port, seg.Port, v.OutPort, v.AltRank, inf.frame.Trace, inf.arrived)
	old := inf.frame.Pkt
	out, err := dataplane.SpliceAltRoute(old, v.AltRoute)
	if err != nil {
		r.discard(sc, stats.DropNotSirpent, 0, inf)
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
	r.reenter(sc, ts, inFrame{port: inf.port, frame: f, arrived: inf.arrived}, depth+1)
}

// fanoutTree handles tree-structured multicast (§2): fan one copy of the
// packet down each branch by splicing the branch's segments in front of
// the remaining bytes, and re-enter each copy in branch order. Each
// branch gets its own pooled buffer (and its own header copy —
// forwarding swaps headers in place, so branches must not share one);
// the original buffer is recycled after the fanout. A traced packet's
// record ends here: branches run on concurrent paths and must not share
// one record, so they continue untraced.
func (r *Router) fanoutTree(sc *batchScratch, ts *dataplane.TokenState, inf *inFrame, seg *viper.Segment, rest []byte) {
	branches, err := viper.DecodeTree(seg.PortInfo)
	if err != nil {
		r.discard(sc, stats.DropBadPort, 0, inf)
		return
	}
	r.plane.CloseFanout(inf.frame.Trace, inf.port, seg.Port, inf.arrived)
	for _, br := range branches {
		headLen := 0
		for i := range br {
			headLen += br[i].WireLen()
		}
		full := pool.Get(headLen + len(rest) + frameHeadroom(len(br), headLen))
		branch := inFrame{port: inf.port, frame: Frame{buf: full}}
		buf := full
		for i := range br {
			if buf, err = viper.AppendSegment(buf, &br[i]); err != nil {
				break
			}
		}
		if err != nil {
			r.discard(sc, stats.DropBadPort, 0, &branch)
			continue
		}
		branch.frame.Pkt = append(buf, rest...)
		if inf.frame.Hdr != nil {
			branch.frame.Hdr = append([]byte(nil), inf.frame.Hdr...)
		}
		r.reenter(sc, ts, branch, 0)
	}
	inf.frame.release()
}

// accumulate appends an outbound frame to its port's transmit batch.
// txIdx persists across batches (a router's port set is stable), touched
// records which accumulators hold frames this batch.
func (r *Router) accumulate(sc *batchScratch, port uint8, item inFrame) {
	if sc.txIdx == nil {
		sc.txIdx = make(map[uint8]int)
	}
	idx, ok := sc.txIdx[port]
	if !ok {
		idx = len(sc.tx)
		sc.tx = append(sc.tx, txAccum{port: port})
		sc.txIdx[port] = idx
	}
	a := &sc.tx[idx]
	if len(a.items) == 0 {
		sc.touched = append(sc.touched, idx)
	}
	a.items = append(a.items, item)
}

// flushTx transmits every accumulated output batch: one pipe lookup and
// one producer lock per port per batch instead of per frame. The push
// never parks (tryPush): frames that do not fit are dropped
// DropQueueFull like the simulation outport, which keeps router workers
// from wedging against each other on full rings. DropBadPort covers an
// unwired port, DropTxError a shutdown race. The trace record of a
// failed frame already carries its forward hop, so it reads "attempted
// forward, then dropped".
func (r *Router) flushTx(sc *batchScratch) {
	for _, idx := range sc.touched {
		a := &sc.tx[idx]
		p := r.outPipe(a.port)
		sent := 0
		reason := stats.DropBadPort
		if p != nil {
			if cap(sc.flush) < len(a.items) {
				sc.flush = make([]Frame, len(a.items))
			}
			fl := sc.flush[:len(a.items)]
			for i := range a.items {
				fl[i] = a.items[i].frame
			}
			sent = p.tryPush(fl)
			for i := range fl {
				fl[i] = Frame{}
			}
			r.counters.forwarded.Add(uint64(sent))
			reason = stats.DropQueueFull
			select {
			case <-r.done:
				reason = stats.DropTxError
			default:
			}
		}
		for i := sent; i < len(a.items); i++ {
			it := &a.items[i]
			r.plane.DropBatched(&sc.bs, reason, it.port, 0, it.frame.Trace, it.arrived)
			it.frame.release()
		}
		for i := range a.items {
			a.items[i] = inFrame{}
		}
		a.items = a.items[:0]
	}
	sc.touched = sc.touched[:0]
}

// receiveBatch delivers one drained batch in arrival order.
func (h *Host) receiveBatch(sc *batchScratch) {
	for i := range sc.in {
		h.receive(sc.in[i])
		sc.in[i] = inFrame{}
	}
}
