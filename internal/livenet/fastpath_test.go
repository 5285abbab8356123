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

// scalarHopDriver builds a router with no goroutine: forward is called
// directly and the forwarded frame read back from a hand-wired port. The
// unexported constructor wires the dataplane pipeline exactly as
// NewRouter would, so the measurement is the production hop.
func scalarHopDriver() (*Router, chan Frame) {
	r := (&Network{}).newRouter("bench")
	ch := make(chan Frame, 1)
	r.node.out[2] = ch
	return r, ch
}

// forwardOneHop pushes one pooled copy of the template through the
// router and recycles the forwarded frame.
func forwardOneHop(r *Router, ch chan Frame, tmpl []byte, hdr []byte) {
	buf := pool.Get(len(tmpl) + frameHeadroom(2, len(tmpl)))
	buf = append(buf, tmpl...)
	copy(hdr, hopHdrTemplate)
	r.forward(inFrame{port: 1, frame: Frame{Hdr: hdr, Pkt: buf, buf: buf[:0]}})
	f := <-ch
	f.release()
}

// TestForwardHopAllocs pins the tentpole regression bound: one forwarded
// hop — decode, header swap, in-place trailer surgery, transmit — costs
// at most one amortized heap allocation, and in steady state zero.
func TestForwardHopAllocs(t *testing.T) {
	r, ch := scalarHopDriver()
	tmpl := hopTemplateBytes()
	hdr := make([]byte, ethernet.HeaderLen)
	// Warm the pool so steady state is measured, not the first fill.
	for i := 0; i < 8; i++ {
		forwardOneHop(r, ch, tmpl, hdr)
	}
	allocs := testing.AllocsPerRun(500, func() {
		forwardOneHop(r, ch, tmpl, hdr)
	})
	if allocs > 1 {
		t.Fatalf("forwarding one hop allocates %.2f times, want <= 1", allocs)
	}
	if s := r.Stats(); s.Forwarded == 0 || s.TotalDrops() != 0 {
		t.Fatalf("unexpected counters after bench loop: %v", s)
	}
}

// BenchmarkForwardHop measures the router fast path in isolation: ns and
// allocs per §6.2 byte-surgery hop.
func BenchmarkForwardHop(b *testing.B) {
	r, ch := scalarHopDriver()
	tmpl := hopTemplateBytes()
	hdr := make([]byte, ethernet.HeaderLen)
	forwardOneHop(r, ch, tmpl, hdr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forwardOneHop(r, ch, tmpl, hdr)
	}
}

// discardTracer opens records that are never retained, isolating the
// per-hop cost of tracing itself from recorder bookkeeping.
type discardTracer struct{}

func (discardTracer) Begin(payload []byte) *trace.PacketTrace {
	return &trace.PacketTrace{Hops: make([]trace.HopEvent, 0, 8)}
}
func (discardTracer) Finish(*trace.PacketTrace) {}

// BenchmarkForwardHopTraced measures the same fast path with a trace
// record attached to every frame — the enabled-path overhead quoted in
// EXPERIMENTS.md. Each iteration begins a fresh record, so the cost
// includes record allocation, clock reads and the hop append.
func BenchmarkForwardHopTraced(b *testing.B) {
	r, ch := scalarHopDriver()
	tmpl := hopTemplateBytes()
	hdr := make([]byte, ethernet.HeaderLen)
	tr := discardTracer{}
	forwardOneHop(r, ch, tmpl, hdr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := pool.Get(len(tmpl) + frameHeadroom(2, len(tmpl)))
		buf = append(buf, tmpl...)
		copy(hdr, hopHdrTemplate)
		pt := trace.Start(tr, nil)
		r.forward(inFrame{port: 1, frame: Frame{Hdr: hdr, Pkt: buf, Trace: pt, buf: buf[:0]}})
		f := <-ch
		f.Trace.Done()
		f.release()
	}
}

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
