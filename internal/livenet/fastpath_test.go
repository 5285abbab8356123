package livenet

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/ethernet"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/viper"
)

// hopHdrTemplate is the Ethernet header every hop-driver frame arrives
// with; forwarding swaps it in place, so drivers re-copy it per frame.
var hopHdrTemplate = ethernet.Header{
	Dst:  ethernet.Addr{0x02, 0, 0, 0, 0, 2},
	Src:  ethernet.Addr{0x02, 0, 0, 0, 0, 1},
	Type: viper.EtherTypeVIPER,
}.Encode()

// hopTemplateBytes encodes a two-segment packet (forward on port 2, then
// local) with one trailer segment, as a first-hop router would see it.
// The encoding is deterministic; failure is a programming error.
func hopTemplateBytes() []byte {
	route := []viper.Segment{
		{Port: 2, Flags: viper.FlagVNT, PortToken: []byte{0xA1, 0xA2, 0xA3, 0xA4}},
		{Port: viper.PortLocal},
	}
	pkt := viper.NewPacket(route, []byte("fastpath-hop-payload"))
	pkt.Trailer = []viper.Segment{{Port: viper.PortLocal}}
	b, err := pkt.Encode()
	if err != nil {
		panic(err)
	}
	return b
}

// hopDriver runs a router with no worker goroutine: forward stages
// frames as a drain would (sc.in), calls forwardBatch directly, and
// reads the flushed frames back from a hand-wired transmit pipe deep
// enough that a flush never parks. The pipe's doorbell stays nil (a nil
// channel in a select with default is never ready), so the measurement
// has no scheduler noise. The unexported constructor wires the dataplane
// pipeline exactly as NewRouter would, so the measurement is the
// production hop.
type hopDriver struct {
	r     *Router
	p     *pipe
	sc    *batchScratch
	tmpl  []byte
	hdrs  [][]byte // one reusable header per frame; forwarding swaps it in place
	drain []Frame
}

// newHopDriver builds a driver that forwards batches of `frames` copies
// of hopTemplateBytes.
func newHopDriver(frames int) *hopDriver {
	n := NewNetwork()
	d := &hopDriver{
		r:     n.newRouter("bench"),
		p:     newPipe(4*batchSize, 2, nil, n.newNode("sink")),
		sc:    newBatchScratch(),
		tmpl:  hopTemplateBytes(),
		hdrs:  make([][]byte, frames),
		drain: make([]Frame, frames),
	}
	d.r.node.addTx(2, d.p)
	for i := range d.hdrs {
		d.hdrs[i] = make([]byte, ethernet.HeaderLen)
	}
	return d
}

// forward pushes one batch of pooled template frames through the router
// — each carrying a fresh trace record when tr is non-nil — and drains
// the transmit ring, recycling every frame.
func (d *hopDriver) forward(tr trace.Tracer) {
	for i := range d.hdrs {
		buf := pool.Get(len(d.tmpl) + frameHeadroom(2, len(d.tmpl)))
		buf = append(buf, d.tmpl...)
		copy(d.hdrs[i], hopHdrTemplate)
		f := Frame{Hdr: d.hdrs[i], Pkt: buf, Trace: trace.Start(tr, nil), buf: buf[:0]}
		d.sc.in = append(d.sc.in, inFrame{port: 1, frame: f})
	}
	d.r.forwardBatch(d.sc)
	for got := 0; got < len(d.hdrs); {
		n := d.p.r.PopBatch(d.drain)
		for i := 0; i < n; i++ {
			if pt := d.drain[i].Trace; pt != nil {
				pt.Done()
			}
			d.drain[i].release()
			d.drain[i] = Frame{}
		}
		got += n
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
	if s := d.r.Stats(); s.Forwarded == 0 || s.TotalDrops() != 0 {
		t.Fatalf("unexpected counters after the measured loop: %v", s)
	}
	return allocs
}

// TestForwardHopAllocs pins the hop contract at its smallest batch: one
// frame — decode, decision, header swap, in-place trailer surgery, ring
// push — allocates nothing in steady state. A lightly loaded router
// decides every frame this way.
func TestForwardHopAllocs(t *testing.T) {
	if allocs := allocsPerBatch(t, newHopDriver(1)); allocs != 0 {
		t.Fatalf("forwarding one hop allocates %.2f times, want 0", allocs)
	}
}

// TestForwardHopAllocsBatched pins the same contract for a full batch:
// batched decode and decision, per-frame byte surgery, one ring flush.
// The bound is per batch, so even one allocation anywhere in the
// 64-frame hot path fails it.
func TestForwardHopAllocsBatched(t *testing.T) {
	if allocs := allocsPerBatch(t, newHopDriver(batchSize)); allocs != 0 {
		t.Fatalf("one %d-frame batch allocates %.2f times, want 0", batchSize, allocs)
	}
}

// benchmarkHops reports ns per hop for full batches of forwarded frames.
func benchmarkHops(b *testing.B, tr trace.Tracer) {
	d := newHopDriver(batchSize)
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
