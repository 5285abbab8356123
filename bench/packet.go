package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Packet workloads drive a livenet topology in a closed loop: each flow
// keeps at most `window` packets in flight and sends the next one when a
// credit returns. A credit returns on delivery or on a publicly counted
// drop — a loop that refills only on delivery leaks one credit per
// dropped packet and ends up measuring its own starvation.

const (
	stampOff   = 8  // payload: [0,8) sequence, [8,16) send stamp, rest seeded bytes
	patternOff = 16 // first payload byte compared against the seeded pattern
	// pktTraceEvery is the span sampling of packet workloads: one
	// operation in 64 gets a root span and its children.
	pktTraceEvery = 64
)

// flowState is the harness side of one flow.
type flowState struct {
	id          uint64
	send        func([]byte) error
	credits     chan struct{}
	first       chan struct{} // closed by the first delivery
	offered     atomic.Uint64
	delivered   atomic.Uint64
	bad         atomic.Uint64 // delivered with a wrong length, sequence or byte
	sendErrs    atomic.Uint64
	dropCredits atomic.Uint64 // counted drops attributed to this flow
	lastSeq     uint64        // owned by the sink goroutine
	lat         atomic.Pointer[hist]
}

func (f *flowState) outstanding() int64 {
	return int64(f.offered.Load()) - int64(f.delivered.Load()) - int64(f.bad.Load()) - int64(f.dropCredits.Load())
}

// arrived counts one delivery and announces the first.
func (f *flowState) arrived() {
	if f.delivered.Add(1) == 1 {
		close(f.first)
	}
}

// credit returns one window credit without ever blocking the caller:
// the channel has room for every credit that can legitimately exist.
func (f *flowState) credit() {
	select {
	case f.credits <- struct{}{}:
	default:
	}
}

type pktWorkload struct {
	build      func() (*pktNet, error)
	payloadLen int
	window     int
	prepared   bool // prepared injection + raw sink: the network alone, unverified
	seed       int64

	net     *pktNet
	pattern []byte
	flows   []*flowState
	stopped atomic.Bool
	senders sync.WaitGroup
	watcher sync.WaitGroup
	watchCh chan struct{}
	tr      atomic.Pointer[tracer]
}

func (w *pktWorkload) setup() error {
	n, err := w.build()
	if err != nil {
		return err
	}
	w.net = n
	w.pattern = make([]byte, w.payloadLen)
	rand.New(rand.NewSource(w.seed)).Read(w.pattern)
	for i, pf := range n.flows {
		f := &flowState{id: uint64(i), send: pf.send,
			credits: make(chan struct{}, 2*w.window+2), first: make(chan struct{})}
		f.lat.Store(&hist{})
		if w.prepared {
			if f.send, err = pf.prepared(w.payloadLen); err != nil {
				n.stop()
				return err
			}
			pf.handleRaw(func([]byte) { f.arrived(); f.credit() })
		} else {
			pf.handle(func(data []byte) { w.deliver(f, data) })
		}
		w.flows = append(w.flows, f)
	}
	// First verified delivery on every flow: set-up ends here.
	buf := append([]byte(nil), w.pattern...)
	for _, f := range w.flows {
		stamp(buf, 1)
		f.offered.Add(1)
		if err := f.send(buf); err != nil {
			n.stop()
			return err
		}
	}
	timeout := time.After(5 * time.Second)
	for _, f := range w.flows {
		select {
		case <-f.first:
		case <-timeout:
			n.stop()
			return fmt.Errorf("no first delivery on flow %d (bad=%d drops=%d)", f.id, f.bad.Load(), n.drops())
		}
	}
	return nil
}

// stamp writes the sequence number and the send stamp into a payload
// buffer that already holds the seeded pattern.
func stamp(buf []byte, seq uint64) int64 {
	now := nowNs()
	binary.LittleEndian.PutUint64(buf, seq)
	binary.LittleEndian.PutUint64(buf[stampOff:], uint64(now))
	return now
}

// deliver is the sink's delivery callback: verify, time, return the
// credit. It runs on the sink host's goroutine.
func (w *pktWorkload) deliver(f *flowState, data []byte) {
	now := nowNs()
	if len(data) != w.payloadLen {
		f.bad.Add(1)
		f.credit()
		return
	}
	seq := binary.LittleEndian.Uint64(data)
	sent := int64(binary.LittleEndian.Uint64(data[stampOff:]))
	if seq <= f.lastSeq || !bytes.Equal(data[patternOff:], w.pattern[patternOff:]) {
		f.bad.Add(1)
		f.credit()
		return
	}
	f.lastSeq = seq
	f.lat.Load().record(now - sent)
	f.arrived()
	f.credit()
	if tr := w.tr.Load(); tr != nil && seq%pktTraceEvery == 0 {
		op := f.id<<56 | seq
		end := nowNs()
		tr.add("deliver", op, rootSpan, now, end)
		tr.add(rootSpan, op, "", sent, end)
	}
}

func (w *pktWorkload) start() {
	for _, f := range w.flows {
		for len(f.credits) > 0 {
			<-f.credits
		}
		for i := 0; i < w.window; i++ {
			f.credits <- struct{}{}
		}
		w.senders.Add(1)
		go w.sendLoop(f)
	}
	w.watchCh = make(chan struct{})
	w.watcher.Add(1)
	go w.watchDrops()
}

func (w *pktWorkload) sendLoop(f *flowState) {
	defer w.senders.Done()
	buf := append([]byte(nil), w.pattern...)
	seq := f.offered.Load()
	for {
		<-f.credits
		if w.stopped.Load() {
			return
		}
		seq++
		t0 := stamp(buf, seq)
		f.offered.Add(1)
		if err := f.send(buf); err != nil {
			f.sendErrs.Add(1)
			return
		}
		if tr := w.tr.Load(); tr != nil && seq%pktTraceEvery == 0 {
			tr.add("livenet.Send", f.id<<56|seq, rootSpan, t0, nowNs())
		}
	}
}

// watchDrops returns a credit for every newly counted drop, to the flow
// with the most packets unaccounted for — the counters do not say whose
// packet died, and with one flow there is no choice to make.
func (w *pktWorkload) watchDrops() {
	defer w.watcher.Done()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var credited uint64
	for {
		select {
		case <-w.watchCh:
			return
		case <-tick.C:
		}
		for d := w.net.drops(); credited < d; credited++ {
			worst := w.flows[0]
			for _, f := range w.flows[1:] {
				if f.outstanding() > worst.outstanding() {
					worst = f
				}
			}
			worst.dropCredits.Add(1)
			worst.credit()
		}
	}
}

func (w *pktWorkload) observe(tr *tracer) {
	for _, f := range w.flows {
		f.lat.Store(&hist{})
	}
	w.tr.Store(tr)
}

func (w *pktWorkload) progress() counts {
	var c counts
	for _, f := range w.flows {
		d := f.delivered.Load()
		c.ops += d
		c.attempted += f.offered.Load()
		c.failed += f.bad.Load() + f.dropCredits.Load()
	}
	c.pkts = c.ops
	c.bytes = c.ops * uint64(w.payloadLen)
	return c
}

// pktTotals is what the conservation check compares.
type pktTotals struct{ offered, delivered, bad, dropped uint64 }

func (w *pktWorkload) totals() pktTotals {
	t := pktTotals{dropped: w.net.drops()}
	for _, f := range w.flows {
		t.offered += f.offered.Load()
		t.delivered += f.delivered.Load()
		t.bad += f.bad.Load()
	}
	return t
}

// stop ends the send interval, lets the network drain, and checks
// conservation: offered = delivered + publicly counted drops.
func (w *pktWorkload) stop() (problems []string) {
	w.stopped.Store(true)
	for _, f := range w.flows {
		f.credit() // wake a sender parked on an empty window
	}
	w.senders.Wait()
	if !settle(w.totals) {
		problems = append(problems, "counters still moving 2 s after the last send")
	}
	close(w.watchCh)
	w.watcher.Wait()
	t := w.totals()
	unaccounted := int64(t.offered) - int64(t.delivered) - int64(t.bad) - int64(t.dropped)
	fmt.Printf("  conservation: offered=%d delivered=%d dropped=%d corrupt=%d unaccounted=%d\n",
		t.offered, t.delivered, t.dropped, t.bad, unaccounted)
	if unaccounted != 0 {
		problems = append(problems, fmt.Sprintf("conservation: %d packets neither delivered nor counted as dropped", unaccounted))
	}
	if t.bad != 0 {
		problems = append(problems, fmt.Sprintf("%d packets delivered with a wrong length, sequence or payload", t.bad))
	}
	if fwd, want := w.net.counters().forwarded, uint64(w.net.hops)*(t.delivered+t.bad); t.dropped == 0 && fwd != want {
		problems = append(problems, fmt.Sprintf("routers forwarded %d packets, want %d hops × %d delivered", fwd, w.net.hops, t.delivered+t.bad))
	}
	for _, f := range w.flows {
		if n := f.sendErrs.Load(); n != 0 {
			problems = append(problems, fmt.Sprintf("flow %d: send failed", f.id))
		}
	}
	return problems
}

func (w *pktWorkload) latency() *hist {
	h := &hist{}
	for _, f := range w.flows {
		h.merge(f.lat.Load())
	}
	return h
}

// layer reports the per-layer counters of the whole run. It is called
// after stop and before teardown.
func (w *pktWorkload) layer(m map[string]float64) {
	c := w.net.counters()
	t := w.totals()
	m["livenet.drops"] = float64(c.drops - c.tunnelDrops - c.sendErrors)
	m["livenet.forwarded_per_pkt"] = ratio(float64(c.forwarded), float64(t.delivered))
	m["token.cache_hit_ratio"] = ratio(float64(c.tokHits), float64(c.tokHits+c.tokVerifies))
	m["udpnet.drop_ratio"] = ratio(float64(c.tunnelDrops), float64(c.encapsulated+c.tunnelDrops))
	m["udpnet.send_errors"] = float64(c.sendErrors)
}

func (w *pktWorkload) teardown() {
	if w.net != nil {
		w.net.stop()
	}
}
