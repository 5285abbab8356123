package trace

import (
	"bytes"
	"testing"
)

// wireContext is TestContextWireRoundTrip's context, and a seed of
// FuzzDecodeContext.
var wireContext = Context{ID: 3<<48 | 42, Origin: 1_700_000_000_123_456_789, Budget: 5}

func TestContextWireRoundTrip(t *testing.T) {
	in := wireContext
	var buf [ContextWireLen]byte
	if n := in.Encode(buf[:]); n != ContextWireLen {
		t.Fatalf("Encode wrote %d bytes, want %d", n, ContextWireLen)
	}
	out, ok := DecodeContext(buf[:])
	if !ok || out != in {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", out, ok, in)
	}
	if _, ok := DecodeContext(buf[:ContextWireLen-1]); ok {
		t.Fatal("DecodeContext accepted a short buffer")
	}
}

// FuzzDecodeContext holds the context decoder, which reads bytes from
// tunnels and stream messages, to its contract: it never panics, it
// accepts exactly the inputs of at least ContextWireLen bytes, and what
// it accepts encodes back to the bytes it read and decodes to itself.
func FuzzDecodeContext(f *testing.F) {
	var buf [ContextWireLen]byte
	wireContext.Encode(buf[:])
	f.Add(buf[:])
	f.Add(buf[:ContextWireLen-1])
	f.Add(append(buf[:], 0xFF))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		c, ok := DecodeContext(b)
		if ok != (len(b) >= ContextWireLen) {
			t.Fatalf("DecodeContext of %d bytes: ok = %v", len(b), ok)
		}
		if !ok {
			if c != (Context{}) {
				t.Fatalf("rejected input decoded to %+v", c)
			}
			return
		}
		var enc [ContextWireLen]byte
		c.Encode(enc[:])
		if !bytes.Equal(enc[:], b[:ContextWireLen]) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", enc, b[:ContextWireLen])
		}
		if back, ok := DecodeContext(enc[:]); !ok || back != c {
			t.Fatalf("DecodeContext(Encode(%+v)) = %+v, %v", c, back, ok)
		}
	})
}

func TestContextHopBudget(t *testing.T) {
	c := Context{ID: 1, Origin: 1, Budget: 2}
	if !c.Valid() || !c.CanHop() {
		t.Fatalf("fresh context not hoppable: %+v", c)
	}
	c = c.Next()
	c = c.Next()
	if c.Budget != 0 || c.CanHop() {
		t.Fatalf("budget not exhausted after 2 crossings: %+v", c)
	}
	// Exhausted contexts stay valid (the trace still exists; it just
	// can't cross again), and Next saturates rather than wrapping.
	if !c.Valid() {
		t.Fatal("exhausted context lost its identity")
	}
	if c = c.Next(); c.Budget != 0 {
		t.Fatalf("budget wrapped: %+v", c)
	}
	if (Context{}).Valid() || (Context{Budget: 8}).CanHop() {
		t.Fatal("zero-ID context treated as a live trace")
	}
}

// TestClusterTracerAccounting pins the cross-process identity rules:
// every originated ID carries the tracer's idBase, resumption keeps
// the foreign ID, the origin/forward stage split follows the identity
// bits, and finished == begun + resumed at quiesce.
func TestClusterTracerAccounting(t *testing.T) {
	spans := NewSpans(8)
	c := NewClusterTracer("n2", 2<<48, spans)

	local := c.Begin([]byte("p"))
	if local == nil || local.Ctx.ID != 2<<48|1 {
		t.Fatalf("first Begin ID %x, want idBase|1", local.Ctx.ID)
	}
	if local.Ctx.Budget != DefaultHopBudget || !local.Ctx.CanHop() {
		t.Fatalf("fresh trace context %+v", local.Ctx)
	}
	local.Add(HopEvent{Node: "a", At: 10})
	local.Add(HopEvent{Node: "b", At: 30})
	c.Finish(local)

	foreign := c.Resume(Context{ID: 1<<48 | 7, Origin: 5, Budget: 3})
	if foreign == nil || foreign.Ctx.ID != 1<<48|7 {
		t.Fatalf("Resume changed the trace ID: %+v", foreign)
	}
	foreign.Add(HopEvent{Node: "a", At: 100})
	foreign.Add(HopEvent{Node: "b", At: 140})
	c.Finish(foreign)

	begun, resumed, finished := c.Counts()
	if begun != 1 || resumed != 1 || finished != 2 {
		t.Fatalf("counts begun=%d resumed=%d finished=%d", begun, resumed, finished)
	}
	got := map[string]int64{}
	for _, st := range spans.Snapshot().Stages {
		got[st.Stage] = st.SumNs
	}
	if got["origin"] != 20 || got["forward"] != 40 {
		t.Fatalf("stage durations %v, want origin=20 forward=40", got)
	}
}

// TestMergeStagesExact: merging per-node snapshots gives the same
// counts and sums as recording everything on one node — the histogram
// buckets travel with the snapshot, so aggregation loses nothing.
func TestMergeStagesExact(t *testing.T) {
	a, b, whole := NewSpans(0), NewSpans(0), NewSpans(0)
	for i := int64(1); i <= 64; i++ {
		sp := Span{Trace: uint64(i), Stage: "wire:1", Start: 0, End: i * 1000}
		whole.Record(sp)
		if i%2 == 0 {
			a.Record(sp)
		} else {
			b.Record(sp)
		}
	}
	merged := MergeStages(a.Snapshot().Stages, b.Snapshot().Stages)
	want := whole.Snapshot().Stages
	if len(merged) != 1 || len(want) != 1 {
		t.Fatalf("stage counts: merged=%d want=%d", len(merged), len(want))
	}
	m, w := merged[0], want[0]
	if m.Count != w.Count || m.SumNs != w.SumNs || m.P50Ns != w.P50Ns || m.P99Ns != w.P99Ns {
		t.Fatalf("merged %+v differs from whole %+v", m, w)
	}
}
