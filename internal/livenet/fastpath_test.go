package livenet

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/ethernet"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/viper"
)

// hopHdrTemplate is the Ethernet header every hop-driver frame arrives
// with; forwarding swaps it in place, so each frame carries a copy.
var hopHdrTemplate = ethernet.Header{
	Dst:  ethernet.Addr{0x02, 0, 0, 0, 0, 2},
	Src:  ethernet.Addr{0x02, 0, 0, 0, 0, 1},
	Type: viper.EtherTypeVIPER,
}.Encode()

// hopTemplateBytes encodes a packet that leaves each of hops routers on
// port 2 and then delivers locally, with one trailer segment, as the
// first-hop router sees it. The encoding is deterministic; failure is a
// programming error.
func hopTemplateBytes(hops int) []byte {
	var route []viper.Segment
	for i := 0; i < hops; i++ {
		route = append(route, viper.Segment{Port: 2, Flags: viper.FlagVNT, PortToken: []byte{0xA1, 0xA2, 0xA3, 0xA4}})
	}
	route = append(route, viper.Segment{Port: viper.PortLocal})
	pkt := viper.NewPacket(route, []byte("fastpath-hop-payload"))
	pkt.Trailer = []viper.Segment{{Port: viper.PortLocal}}
	b, err := pkt.Encode()
	if err != nil {
		panic(err)
	}
	return b
}

// sinkNode is the far end of a hand-wired output pipe that nothing
// drains but the test itself.
func sinkNode() *node { return newNode("sink", make(chan struct{}), nil) }

// hopDriver runs a chain of routers with no goroutine: forward stages
// frames as a drain would (the first router's sc.in), calls forwardBatch
// directly, runs the worker's work-list — the routers behind the first
// are fused to it, as NewNetwork builds them — and reads the flushed
// frames back from a hand-wired transmit pipe on the last router, deep
// enough that a flush never overflows. The pipe's doorbell stays nil (a
// nil channel in a select with default is never ready), so the
// measurement has no scheduler noise. The unexported constructor wires
// the dataplane pipeline exactly as NewRouter would, so the measurement
// is the production hop.
type hopDriver struct {
	r     *Router   // the first router
	chain []*Router // every router, first to last
	p     *pipe
	tmpl  []byte
	drain []*frame // one slot per frame of a batch
}

// newHopDriver builds a driver that forwards batches of `frames` copies
// of hopTemplateBytes(hops) across a chain of hops fused routers.
func newHopDriver(frames, hops int) *hopDriver {
	n := NewNetwork()
	d := &hopDriver{
		p:     newPipe(4*batchSize, 2, nil, sinkNode()),
		tmpl:  hopTemplateBytes(hops),
		drain: make([]*frame, frames),
	}
	for i := 0; i < hops; i++ {
		r := n.newRouter(fmt.Sprintf("r%d", i))
		if i > 0 {
			n.Connect(d.chain[i-1], 2, r, 1)
		}
		d.chain = append(d.chain, r)
	}
	d.r = d.chain[0]
	d.chain[hops-1].node.addTx(2, d.p)
	return d
}

// stage puts one batch of pooled template frames behind a copy of
// hopHdrTemplate — each carrying a fresh trace record when tr is
// non-nil — on the first router's input, arrived on port 1.
func (d *hopDriver) stage(tr trace.Tracer) {
	for range d.drain {
		f, buf := newFrame(hopHdrTemplate, len(d.tmpl)+frameHeadroom(len(d.chain)+1, len(d.tmpl)))
		f.pkt, f.pt, f.port = append(buf, d.tmpl...), trace.Start(tr, nil), 1
		d.r.sc.in = append(d.r.sc.in, f)
	}
}

// sink drains the last router's transmit ring, recycling every frame,
// and returns how many it took.
func (d *hopDriver) sink() int {
	got := 0
	for {
		n := d.p.r.PopBatch(d.drain)
		if n == 0 {
			return got
		}
		for _, f := range d.drain[:n] {
			if f.pt != nil {
				f.pt.Done()
			}
			f.release()
		}
		got += n
	}
}

// forward pushes one batch through the whole chain and drains it.
func (d *hopDriver) forward(tr trace.Tracer) {
	d.stage(tr)
	d.r.forwardBatch(d.r.sc)
	d.r.w.runWork()
	for got := 0; got < len(d.drain); {
		got += d.sink()
	}
}

// allocsPerBatch warms the driver (pool and scratch slices reach their
// working size) and measures one steady-state batch.
func allocsPerBatch(t *testing.T, d *hopDriver) float64 {
	t.Helper()
	for i := 0; i < 8; i++ {
		d.forward(nil)
	}
	allocs := testing.AllocsPerRun(200, func() { d.forward(nil) })
	for _, r := range d.chain {
		if s := r.Stats(); s.Forwarded == 0 || s.TotalDrops() != 0 {
			t.Fatalf("%s: unexpected counters after the measured loop: %v", r.name, s)
		}
	}
	return allocs
}

// TestForwardHopAllocs pins the hop contract at its smallest batch: one
// frame — decode, decision, header swap, in-place trailer surgery, ring
// push — allocates nothing in steady state. A lightly loaded router
// decides every frame this way.
func TestForwardHopAllocs(t *testing.T) {
	if allocs := allocsPerBatch(t, newHopDriver(1, 1)); allocs != 0 {
		t.Fatalf("forwarding one hop allocates %.2f times, want 0", allocs)
	}
}

// TestForwardHopAllocsBatched pins the same contract for a full batch:
// batched decode and decision, per-frame byte surgery, one ring flush —
// at one router, and across a chain of four fused routers, where every
// hop but the last hands the whole batch on. The bound is per batch, so
// even one allocation anywhere in the 64-frame hot path fails it.
func TestForwardHopAllocsBatched(t *testing.T) {
	for _, hops := range []int{1, 4} {
		if allocs := allocsPerBatch(t, newHopDriver(batchSize, hops)); allocs != 0 {
			t.Fatalf("one %d-frame batch across %d routers allocates %.2f times, want 0", batchSize, hops, allocs)
		}
	}
}

// benchmarkHops reports ns per hop for full batches of forwarded frames.
func benchmarkHops(b *testing.B, tr trace.Tracer) {
	d := newHopDriver(batchSize, 1)
	d.forward(tr)
	b.ReportAllocs()
	b.ResetTimer()
	hops := 0
	for hops < b.N {
		d.forward(tr)
		hops += batchSize
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
}

// BenchmarkForwardHopBatched measures the router fast path in isolation:
// ns and allocs per hop when the per-hop kernel is amortized across
// 64-frame batches.
func BenchmarkForwardHopBatched(b *testing.B) { benchmarkHops(b, nil) }

// discardTracer opens records that are never retained, isolating the
// per-hop cost of tracing itself from recorder bookkeeping.
type discardTracer struct{}

func (discardTracer) Begin(payload []byte) *trace.PacketTrace {
	return &trace.PacketTrace{Hops: make([]trace.HopEvent, 0, 8)}
}
func (discardTracer) Finish(*trace.PacketTrace) {}

// BenchmarkForwardHopTraced measures the same fast path with a trace
// record attached to every frame — the enabled-path overhead quoted in
// EXPERIMENTS.md. Each frame begins a fresh record, so the cost includes
// record allocation, clock reads, the queue-depth probe and the hop
// append.
func BenchmarkForwardHopTraced(b *testing.B) { benchmarkHops(b, discardTracer{}) }

// TestAppendTrailerSegmentMatchesReference runs seeded random packets
// through multi-hop surgery twice — the in-place fast path and the
// allocating reference implementation — and requires byte equality
// after every hop.
func TestAppendTrailerSegmentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nHops := 1 + rng.Intn(6)
		route := make([]viper.Segment, 0, nHops+1)
		for i := 0; i < nHops; i++ {
			s := viper.Segment{Port: uint8(1 + rng.Intn(250)), Flags: viper.FlagVNT}
			if rng.Intn(2) == 0 {
				s.PortToken = randBytes(rng, 1+rng.Intn(12))
			}
			route = append(route, s)
		}
		route = append(route, viper.Segment{Port: viper.PortLocal})
		pkt := viper.NewPacket(route, randBytes(rng, rng.Intn(200)))
		pkt.Trailer = []viper.Segment{{Port: viper.PortLocal}}
		encoded, err := pkt.Encode()
		if err != nil {
			t.Fatal(err)
		}

		// fast walks the in-place path in a pooled buffer with headroom;
		// slow rebuilds each hop with the allocating reference.
		fast := pool.Get(len(encoded) + frameHeadroom(nHops, len(encoded)))
		fast = append(fast, encoded...)
		slow := append([]byte(nil), encoded...)
		for hop := 0; hop < nHops; hop++ {
			fseg, frest, err := viper.DecodeSegmentNoCopy(fast)
			if err != nil {
				t.Fatalf("iter %d hop %d: fast decode: %v", iter, hop, err)
			}
			sseg, srest, err := viper.DecodeSegment(slow)
			if err != nil {
				t.Fatalf("iter %d hop %d: slow decode: %v", iter, hop, err)
			}
			fret := viper.Segment{Port: uint8(hop + 1), Priority: fseg.Priority, PortToken: fseg.PortToken}
			sret := viper.Segment{Port: uint8(hop + 1), Priority: sseg.Priority, PortToken: sseg.PortToken}
			if fast, err = dataplane.AppendTrailerSegment(frest, &fret); err != nil {
				t.Fatalf("iter %d hop %d: fast surgery: %v", iter, hop, err)
			}
			if slow, err = dataplane.AppendTrailerSegmentRef(srest, &sret); err != nil {
				t.Fatalf("iter %d hop %d: slow surgery: %v", iter, hop, err)
			}
			if !bytes.Equal(fast, slow) {
				t.Fatalf("iter %d hop %d: fast path diverges from reference\nfast: %x\nslow: %x",
					iter, hop, fast, slow)
			}
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}
