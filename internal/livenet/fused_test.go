package livenet

import (
	"sync/atomic"
	"testing"

	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viper"
)

// TestFusedChainKeepsBatchWhole drains one full batch from a ring at the
// first router of a four-router chain and steps the worker by hand: each
// router behind the first receives the whole batch in one hand-off and
// forwards it in one forwardBatch call, and the batch leaves the last
// router whole.
func TestFusedChainKeepsBatchWhole(t *testing.T) {
	d := newHopDriver(batchSize, 4)
	src := newPipe(batchSize, 1, &Link{}, d.r.node)
	d.r.addRx(src)
	d.stage(nil)
	frames := append([]*frame(nil), d.r.sc.in...)
	d.r.sc.in = d.r.sc.in[:0]
	if n := src.tryPush(frames); n != batchSize {
		t.Fatalf("source ring took %d frames, want %d", n, batchSize)
	}

	if n := d.r.drainPipe(src, d.r.sc); n != batchSize {
		t.Fatalf("drained %d frames at r0, want %d", n, batchSize)
	}
	d.r.forwardBatch(d.r.sc)
	w := d.r.w
	for _, r := range d.chain[1:] {
		if got := len(r.sc.in); got != batchSize {
			t.Fatalf("%s holds %d handed-over frames, want the whole batch of %d", r.name, got, batchSize)
		}
		if ran := w.step(); ran != r {
			t.Fatalf("worker stepped %v, want %s", ran, r.name)
		}
	}
	if ran := w.step(); ran != nil {
		t.Fatalf("worker stepped %s after the last hop; each router should run once", ran.name)
	}
	if got := d.sink(); got != batchSize {
		t.Fatalf("%d frames left the chain, want %d", got, batchSize)
	}
	for _, r := range d.chain {
		if s := r.Stats(); s.Forwarded != batchSize || s.TotalDrops() != 0 {
			t.Fatalf("%s counters %v, want %d forwarded and no drops", r.name, s, batchSize)
		}
	}
}

// fusedPair is two routers on one worker: a forwards on port 2 over a
// fused link to b's port 1, and b delivers locally. Nothing runs the
// worker; the tests hand over and step by hand.
type fusedPair struct {
	n    *Network
	a, b *forwardRig
	link *Link
}

func newFusedPair(opts ...LinkOption) *fusedPair {
	a := newForwardRig()
	b := newRigOn(a.n, "b")
	return &fusedPair{n: a.n, a: a, b: b, link: a.n.Connect(a.r, 2, b.r, 1, opts...)}
}

// send forwards k copies of a frame for b's stack from a, traced when tr
// is non-nil; what crosses the link waits at b.
func (fp *fusedPair) send(tb testing.TB, tr trace.Tracer, k int) {
	frames := make([][]byte, k)
	for i := range frames {
		frames[i] = unicastTo(tb, 2, "fused")
	}
	fp.a.forward(tr, frames...)
}

// TestFusedLinkDepth checks that a fused link holds at most its depth:
// the excess of one hand-off drops DropQueueFull at the producer, and
// the count resets once the consumer has run.
func TestFusedLinkDepth(t *testing.T) {
	fp := newFusedPair(WithDepth(4))
	fp.send(t, nil, 6)
	if s := fp.a.r.Stats(); s.Forwarded != 4 || s.DropCount(stats.DropQueueFull) != 2 {
		t.Fatalf("producer counters %v, want 4 forwarded and 2 queue-full drops", s)
	}
	if got := len(fp.b.r.sc.in); got != 4 {
		t.Fatalf("consumer holds %d frames, want 4", got)
	}
	fp.send(t, nil, 1)
	if s := fp.a.r.Stats(); s.DropCount(stats.DropQueueFull) != 3 {
		t.Fatalf("a full fused link accepted a frame: %v", s)
	}
	fp.a.r.w.runWork()
	if s := fp.b.r.Stats(); s.Local != 4 {
		t.Fatalf("consumer counters %v, want 4 local", s)
	}
	fp.send(t, nil, 4)
	fp.a.r.w.runWork()
	if s := fp.b.r.Stats(); s.Local != 8 {
		t.Fatalf("consumer counters %v after the link drained, want 8 local", s)
	}
}

// TestFusedLinkFaults checks that SetDown and SetLossRatio discard frames
// at the hand-off as they would at a ring's dequeue: counted forwarded at
// the producer, in Link.Dropped, and closed on an ActionLost hop at the
// consumer.
func TestFusedLinkFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(*Link)
	}{
		{"down", func(l *Link) { l.SetDown(true) }},
		{"loss", func(l *Link) { l.SetLossRatio(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fp := newFusedPair()
			tc.fault(fp.link)
			rec := trace.NewRecorder(nil)
			fp.send(t, rec, 3)
			if got := fp.link.Dropped(); got != 3 {
				t.Fatalf("Link.Dropped = %d, want 3", got)
			}
			if s := fp.a.r.Stats(); s.Forwarded != 3 {
				t.Fatalf("producer counters %v, want 3 forwarded", s)
			}
			if got := len(fp.b.r.sc.in); got != 0 || fp.a.r.w.step() != nil {
				t.Fatalf("lost frames reached the consumer: %d held", got)
			}
			traces := rec.Traces()
			if len(traces) != 3 {
				t.Fatalf("%d finished traces, want 3", len(traces))
			}
			for _, pt := range traces {
				last := pt.Hops[len(pt.Hops)-1]
				if last.Action != trace.ActionLost || last.Node != "b" || last.InPort != 1 {
					t.Fatalf("terminal hop %+v, want lost entering b on port 1:\n%s", last, pt.Format())
				}
			}
		})
	}
}

// TestFusedLinkQueueDepth checks that a traced frame's forward hop reads
// a fused link's depth as the frames handed over and not yet consumed.
func TestFusedLinkQueueDepth(t *testing.T) {
	fp := newFusedPair()
	fp.send(t, nil, 5)
	rec := trace.NewRecorder(nil)
	fp.send(t, rec, 1)
	fp.a.r.w.runWork()
	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d finished traces, want 1", len(traces))
	}
	var at *trace.HopEvent
	for i := range traces[0].Hops {
		if ev := &traces[0].Hops[i]; ev.Node == "r" && ev.Action == trace.ActionForward {
			at = ev
		}
	}
	if at == nil || at.QueueDepth != 5 {
		t.Fatalf("forward hop at r = %+v, want queue depth 5:\n%s", at, traces[0].Format())
	}
	if s := fp.b.r.Stats(); s.Local != 6 {
		t.Fatalf("consumer counters %v, want 6 local", s)
	}
}

// TestFusedLinkReleasedAtStop hands frames over and stops the network
// before its worker runs them: Stop recycles every pooled frame.
func TestFusedLinkReleasedAtStop(t *testing.T) {
	fp := newFusedPair()
	gets0, _, puts0, rej0 := pool.Stats()
	fp.send(t, nil, 7)
	if got := len(fp.b.r.sc.in); got != 7 {
		t.Fatalf("consumer holds %d frames, want 7", got)
	}
	fp.n.Stop()
	if got := len(fp.b.r.sc.in); got != 0 {
		t.Fatalf("consumer still holds %d frames after stop", got)
	}
	gets1, _, puts1, rej1 := pool.Stats()
	if taken, back := gets1-gets0, (puts1-puts0)+(rej1-rej0); taken != back {
		t.Fatalf("pool: %d buffers taken, %d given back", taken, back)
	}
}

// TestSplitRoutersRings checks the test hook: under SplitRouters every
// router gets a worker of its own and a router-to-router link is a ring
// pair, while by default the link is fused.
func TestSplitRoutersRings(t *testing.T) {
	for _, split := range []bool{false, true} {
		n := NewNetwork()
		if split {
			SplitRouters(n)
		}
		a, b := n.newRouter("a"), n.newRouter("b")
		n.Connect(a, 1, b, 1)
		fused := a.outPipe(1).to != nil && b.outPipe(1).to != nil
		if fused == split || (a.w == b.w) == split {
			t.Fatalf("split=%v: fused link %v, shared worker %v", split, fused, a.w == b.w)
		}
	}
}

// TestPoolBalanceAtStop checks that a network gives back every pooled
// frame it takes, with its buffer, by the time Network.Stop returns:
// frames delivered, lost on a lossy link, dropped queue-full, and still
// held at Stop — in a receive ring, or handed over on a fused link and
// waiting on the work-list. Frames count into pool.Stats, so across the
// test gets = puts + rejected.
func TestPoolBalanceAtStop(t *testing.T) {
	onBothPartitions(t, func(t *testing.T, newNetwork func(...NetworkOption) *Network) {
		gets0, _, puts0, rej0 := pool.Stats()
		chain := func(hops int) []viper.Segment {
			route := []viper.Segment{{Port: 1}}
			for i := 0; i < hops; i++ {
				route = append(route, viper.Segment{Port: 2, Flags: viper.FlagVNT})
			}
			return append(route, viper.Segment{Port: viper.PortLocal})
		}
		payload := []byte("balance")

		// A live chain, src -ring- r1 -lossy- r2 - r3 -ring- dst, whose
		// last ring is 2 deep. Once dst's handler blocks, r3 drops
		// queue-full and the ring stays full until Stop.
		n := newNetwork()
		src, dst := n.NewHost("src"), n.NewHost("dst")
		r1, r2, r3 := n.NewRouter("r1"), n.NewRouter("r2"), n.NewRouter("r3")
		n.Connect(src, 1, r1, 1)
		lossy := n.Connect(r1, 2, r2, 1)
		n.Connect(r2, 2, r3, 1)
		n.Connect(r3, 2, dst, 1, WithDepth(2))
		lossy.SetLossRatio(0.25)
		var delivered atomic.Uint64
		var block atomic.Bool
		stuck := make(chan struct{})
		dst.Handle(viper.PortLocal, func(Delivery) {
			delivered.Add(1)
			if block.Load() {
				<-stuck
			}
		})
		sent := uint64(0)
		send := func(k int) {
			for i := 0; i < k; i++ {
				if err := src.Send(chain(3), payload); err != nil {
					t.Fatal(err)
				}
				sent++
			}
		}
		// Every frame sent is lost, dropped by a router, or forwarded by
		// r3 to dst's ring, once nothing is in flight.
		settled := func() bool {
			s1, s2, s3 := r1.Stats(), r2.Stats(), r3.Stats()
			ended := lossy.Dropped() + s1.TotalDrops() + s2.TotalDrops() + s3.TotalDrops() + s3.Forwarded
			return ended == sent
		}
		send(200)
		waitFor(t, func() bool { return settled() && delivered.Load() == r3.Stats().Forwarded })
		if lossy.Dropped() == 0 {
			t.Fatal("the lossy link lost nothing")
		}
		// Bursts until dst's handler has blocked and r3 has filled its
		// ring: a fused chain brings a burst to r3 as one batch, so the
		// burst that blocks the handler may leave the ring empty.
		block.Store(true)
		into := dst.rxPipes()[0]
		for i := 0; into.r.Len() < 2; i++ {
			if i == 10 {
				t.Fatalf("dst's ring holds %d frames after %d bursts, want 2", into.r.Len(), i)
			}
			send(batchSize)
			waitFor(t, settled)
		}
		if r3.Stats().DropCount(stats.DropQueueFull) == 0 {
			t.Fatal("no queue-full drop at r3")
		}

		// A network whose worker never runs: what h sends waits in r4's
		// receive ring, and one batch forwarded by hand waits at r5 — on
		// the work-list when the link is fused, in r5's ring when split.
		n2 := newNetwork()
		h := n2.NewHost("h")
		r4, r5 := n2.newRouter("r4"), n2.newRouter("r5")
		n2.Connect(h, 1, r4, 1, WithDepth(2*batchSize))
		n2.Connect(r4, 2, r5, 1)
		for i := 0; i < batchSize+8; i++ {
			if err := h.Send(chain(2), payload); err != nil {
				t.Fatal(err)
			}
		}
		in4 := r4.rxPipes()[0]
		r4.drainPipe(in4, r4.sc)
		r4.forwardBatch(r4.sc)
		held := len(r5.sc.in)
		if rx := r5.rxPipes(); len(rx) > 0 {
			held = rx[0].r.Len()
		}
		if held != batchSize || in4.r.Len() != 8 {
			t.Fatalf("r5 holds %d frames and r4's ring %d, want %d and 8", held, in4.r.Len(), batchSize)
		}

		// dst's handler resumes only once Stop has told dst to exit, so
		// its ring is still full when the host goroutine ends.
		go func() {
			<-dst.done
			close(stuck)
		}()
		n.Stop()
		n2.Stop()
		gets, _, puts, rej := pool.Stats()
		if taken, back := gets-gets0, (puts-puts0)+(rej-rej0); taken != back || taken < sent {
			t.Fatalf("pool: %d frames taken, %d given back (%d sent on the live chain)", taken, back, sent)
		}
	})
}
