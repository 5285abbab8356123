package livenet

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/pool"
)

// batchedHopDriver builds a batched router with no worker goroutine:
// forwardBatch is called directly and the flushed frames read back from
// a hand-wired transmit pipe deep enough that a flush never parks. The
// pipe's doorbell stays nil (a nil channel in a select with default is
// never ready), so the measurement has no scheduler noise.
func batchedHopDriver() (*Router, *pipe, *batchScratch) {
	n := NewNetwork(WithBatching())
	r := n.newRouter("bench")
	p := newPipe(4*batchSize, 2, nil, n.newNode("sink"))
	r.node.addTx(2, p)
	return r, p, newBatchScratch()
}

// forwardOneBatch stages a full batch of pooled template frames as a
// drain would (sc.in), runs them through forwardBatch, and drains the
// transmit ring, recycling every frame. hdrs holds one reusable header
// buffer per batch slot — each frame's header is swapped in place.
func forwardOneBatch(r *Router, p *pipe, sc *batchScratch, tmpl []byte, hdrs [][]byte, drain []Frame) {
	for i := 0; i < batchSize; i++ {
		buf := pool.Get(len(tmpl) + frameHeadroom(2, len(tmpl)))
		buf = append(buf, tmpl...)
		copy(hdrs[i], hopHdrTemplate)
		sc.in = append(sc.in, inFrame{port: 1, frame: Frame{Hdr: hdrs[i], Pkt: buf, buf: buf[:0]}})
	}
	r.forwardBatch(sc)
	got := 0
	for got < batchSize {
		n := p.r.PopBatch(drain)
		for i := 0; i < n; i++ {
			drain[i].release()
			drain[i] = Frame{}
		}
		got += n
	}
}

// TestForwardHopAllocsBatched pins the batched fast-path contract: a
// steady-state batch of forwarded hops — batched decode and decision,
// per-frame byte surgery, one ring flush — allocates nothing. The bound
// is per batch, so even one allocation anywhere in the 64-frame hot
// path fails it.
func TestForwardHopAllocsBatched(t *testing.T) {
	r, p, sc := batchedHopDriver()
	tmpl := hopTemplateBytes()
	hdrs := make([][]byte, batchSize)
	for i := range hdrs {
		hdrs[i] = make([]byte, ethernet.HeaderLen)
	}
	drain := make([]Frame, batchSize)
	// Warm the pool and the scratch slices so steady state is measured.
	for i := 0; i < 8; i++ {
		forwardOneBatch(r, p, sc, tmpl, hdrs, drain)
	}
	allocs := testing.AllocsPerRun(200, func() {
		forwardOneBatch(r, p, sc, tmpl, hdrs, drain)
	})
	if allocs != 0 {
		t.Fatalf("one %d-frame batch allocates %.2f times, want 0", batchSize, allocs)
	}
	if s := r.Stats(); s.Forwarded == 0 || s.TotalDrops() != 0 {
		t.Fatalf("unexpected counters after bench loop: %v", s)
	}
}

// BenchmarkForwardHopBatched measures the batched router fast path in
// isolation: ns and allocs per hop when the per-hop kernel is amortized
// across 64-frame batches. Compare against BenchmarkForwardHop, the
// scalar equivalent.
func BenchmarkForwardHopBatched(b *testing.B) {
	r, p, sc := batchedHopDriver()
	tmpl := hopTemplateBytes()
	hdrs := make([][]byte, batchSize)
	for i := range hdrs {
		hdrs[i] = make([]byte, ethernet.HeaderLen)
	}
	drain := make([]Frame, batchSize)
	forwardOneBatch(r, p, sc, tmpl, hdrs, drain)
	b.ReportAllocs()
	b.ResetTimer()
	hops := 0
	for hops < b.N {
		forwardOneBatch(r, p, sc, tmpl, hdrs, drain)
		hops += batchSize
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
}
