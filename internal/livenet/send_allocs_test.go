package livenet

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/ledger"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/viper"
)

// TestSendAllocs pins the send half: Host.Send seals the route header,
// the data and the origin trailer straight into a pooled buffer on
// every packet. In steady state — pool warmed, each frame recycled
// before the next send — injection and transit allocate nothing, for
// one route, for a host alternating two routes, and for a first hop
// with a 14-byte Ethernet header, which is copied into the frame's own
// buffer.
func TestSendAllocs(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	r := n.NewRouter("r")
	src := n.NewHost("src")
	dst := n.NewHost("dst")
	n.Connect(src, 1, r, 1)
	n.Connect(r, 2, dst, 1)

	var delivered atomic.Uint64
	dst.SetRawHandler(func([]byte) { delivered.Add(1) })

	a := []viper.Segment{
		{Port: 1},
		{Port: 2, Flags: viper.FlagVNT},
		{Port: viper.PortLocal},
	}
	b := []viper.Segment{
		{Port: 1},
		{Port: 2, Flags: viper.FlagVNT, Priority: 3, PortToken: []byte("opaque")},
		{Port: viper.PortLocal},
	}
	eth := []viper.Segment{
		{Port: 1, PortInfo: hopHdrTemplate},
		{Port: 2, Flags: viper.FlagVNT},
		{Port: viper.PortLocal},
	}
	payload := []byte("alloc-pinned-payload")

	for _, tc := range []struct {
		name   string
		routes [][]viper.Segment
	}{
		{"one route", [][]viper.Segment{a}},
		{"two routes alternating", [][]viper.Segment{a, b}},
		{"ethernet first hop", [][]viper.Segment{eth}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One packet in flight at a time: waiting for the delivery
			// before the next send keeps the pool warm, so the
			// measurement sees the steady state rather than pool fills
			// for an ever-deeper pipeline.
			sent := delivered.Load()
			step := func() {
				for _, route := range tc.routes {
					sent++
					if err := src.Send(route, payload); err != nil {
						t.Fatal(err)
					}
					for delivered.Load() < sent {
						runtime.Gosched()
					}
				}
			}
			for i := 0; i < 16; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(300, step); allocs != 0 {
				t.Fatalf("Host.Send allocates %.2f times per step, want 0", allocs)
			}
		})
	}
}

// TestReceiveAllocs pins the receive half: one steady Handle delivery —
// decode, arrival segment, return route, handler call, frame recycle —
// allocates exactly once, the return route's bytes, and no more bytes
// than the trailer needs: at most 32 B per delivery for the tokenless
// shape (24 B of route) and 128 B for two 24-byte tokens (72 B). The
// host walks the trailer's length bytes to validate it and copies it;
// the walk fills no segment and allocates nothing. The one allocation is the floor, not an oversight: the Delivery
// contract lets a handler keep ReturnRoute (vmtp.RT holds it per
// request group) after the frame it came in is recycled, and the
// benchmark forbids a metric of 0, so the count must not fall below 1
// either. Its size is what matters to the collector: at the runtime's
// minimum heap goal the collection rate follows the bytes allocated per
// delivery. The frame is driven straight into the host's receive step,
// so the counts have no scheduler in them.
func TestReceiveAllocs(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	h := n.NewHost("dst")
	var got Delivery
	h.Handle(viper.PortLocal, func(d Delivery) { got = d })

	for _, tc := range []struct {
		name     string
		tokened  int
		maxBytes float64
	}{
		{"tokenless", 0, 32},
		{"two tokened hops", 2, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmpl := chainDelivery(t, tc.tokened, 0xA0)
			step := func() { receiveCopy(h, tmpl) }
			step()
			if got.ReturnRoute.Len() != 6 || string(got.Data) != "receive-allocs" {
				t.Fatalf("delivery = %q with %d-segment return route, want the payload and 6", got.Data, got.ReturnRoute.Len())
			}
			if allocs := testing.AllocsPerRun(200, step); allocs != 1 {
				t.Fatalf("one delivery allocates %.2f times, want exactly 1", allocs)
			}
			if b := bytesPerRun(1000, step); b > tc.maxBytes {
				t.Fatalf("one delivery allocates %.1f B, want at most %.0f", b, tc.maxBytes)
			}
		})
	}
}

// bytesPerRun returns the heap bytes one call of f allocates, averaged
// over runs after a warm-up call, from runtime.MemStats deltas taken
// on one P, as testing.AllocsPerRun counts allocations.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestReturnRouteSharedBytes pins that a delivery's return route owns
// its bytes and shares them with nothing. Route A is delivered twice,
// then route B (other tokens), then A again, so a repeated trailer
// follows both itself and another. Each handler decodes its route, keeps
// the Route and the segments, and then overwrites its whole frame,
// trailer included. Afterwards every kept Route still decodes to its
// own tokens, and every slice decoded from one still holds them, and
// no two deliveries' routes share bytes, repeats included.
func TestReturnRouteSharedBytes(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	h := n.NewHost("dst")
	var kept []viper.Route
	var decoded [][]viper.Segment
	h.Handle(viper.PortLocal, func(d Delivery) {
		kept = append(kept, d.ReturnRoute)
		decoded = append(decoded, d.ReturnRoute.Segments(nil))
		// Data runs to the end of the frame's buffer: the trailer sits
		// within its capacity.
		frame := d.Data[:cap(d.Data)]
		for i := range frame {
			frame[i] ^= 0xFF
		}
	})

	a := chainDelivery(t, 2, 0xA0)
	b := chainDelivery(t, 2, 0xB0)
	for _, pkt := range [][]byte{a, a, b, a} {
		receiveCopy(h, pkt)
	}
	if len(kept) != 4 {
		t.Fatalf("%d deliveries, want 4", len(kept))
	}
	tokens := func(route []viper.Segment) [][]byte {
		var out [][]byte
		for _, s := range route {
			if s.PortToken != nil {
				out = append(out, s.PortToken)
			}
		}
		return out
	}
	holds := func(what string, i int, route []viper.Segment, fill byte) {
		t.Helper()
		toks := tokens(route)
		if len(toks) != 2 {
			t.Fatalf("delivery %d, %s: return route carries %d tokens, want 2", i, what, len(toks))
		}
		// The reply runs newest hop first: the second tokened hop's
		// token leads.
		for j, tok := range toks {
			if w := bytes.Repeat([]byte{fill + byte(1-j)}, 24); !bytes.Equal(tok, w) {
				t.Fatalf("delivery %d, %s: token %d = %x, want %x", i, what, j, tok, w)
			}
		}
	}
	for i, fill := range []byte{0xA0, 0xA0, 0xB0, 0xA0} {
		holds("decoded in the handler", i, decoded[i], fill)
		holds("decoded again", i, kept[i].Segments(nil), fill)
	}
	for i := range decoded {
		for j := range decoded[:i] {
			if &tokens(decoded[i])[0][0] == &tokens(decoded[j])[0][0] {
				t.Fatalf("deliveries %d and %d share their route's bytes", j, i)
			}
		}
	}
}

// chainDelivery encodes a packet as a four-router chain delivers it:
// the local segment left, and a trailer of the origin plus one return
// segment per hop, of which the first tokened carry 24-byte tokens
// filled with fill, fill+1, ...
func chainDelivery(t *testing.T, tokened int, fill byte) []byte {
	t.Helper()
	p := viper.NewPacket([]viper.Segment{{Port: viper.PortLocal}}, []byte("receive-allocs"))
	p.Trailer = []viper.Segment{{Port: viper.PortLocal}}
	for i := 0; i < 4; i++ {
		s := viper.Segment{Port: 1}
		if i < tokened {
			s.PortToken = bytes.Repeat([]byte{fill + byte(i)}, 24)
		}
		p.Trailer = append(p.Trailer, s)
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// receiveCopy drives a pooled copy of pkt straight into h's receive
// step, as if it arrived on port 1.
func receiveCopy(h *Host, pkt []byte) {
	f, buf := newFrame(nil, len(pkt))
	f.pkt, f.port = append(buf, pkt...), 1
	h.receive(f)
}

// TestSendRaw checks the encapsulation-gateway injection half: bytes
// handed to SendRawTraced with a zero trace context cross the link exactly as given — no segment
// strip, no trailer growth — and the caller's buffer is copied, not
// aliased. A missing interface is an error, not a silent drop.
func TestSendRaw(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	a := n.NewHost("a")
	b := n.NewHost("b")
	n.Connect(a, 3, b, 1)

	got := make(chan []byte, 1)
	b.SetRawHandler(func(pkt []byte) {
		got <- append([]byte(nil), pkt...)
	})

	pkt := []byte("opaque-encapsulated-bytes")
	if err := a.SendRawTraced(3, pkt, trace.Context{}); err != nil {
		t.Fatal(err)
	}
	// Scribble on the caller's buffer after the send: the frame must
	// carry a copy.
	pkt[0] = 'X'
	rx := <-got
	if !bytes.Equal(rx, []byte("opaque-encapsulated-bytes")) {
		t.Fatalf("raw bytes mutated in transit: %q", rx)
	}
	if err := a.SendRawTraced(9, pkt, trace.Context{}); err == nil {
		t.Fatal("SendRawTraced on a nonexistent interface succeeded")
	}
}

// TestNetworkOptionsWiring covers the construction-time option path:
// WithTracer and WithFlightRecorder must install their argument, and
// WithLedgerCollector must register every subsequently created router
// as an account source so a Collect sweep sees its token charges.
func TestNetworkOptionsWiring(t *testing.T) {
	tr := discardTracer{}
	fr := ledger.NewFlightRecorder(16)
	led := ledger.New()
	col := ledger.NewCollector(led)

	n := NewNetwork(WithTracer(tr), WithFlightRecorder(fr), WithLedgerCollector(col))
	defer n.Stop()

	if got := n.cfg.tracer; got != tr {
		t.Fatalf("tracer = %v, want the option-installed tracer", got)
	}
	if got := n.cfg.flight; got != fr {
		t.Fatalf("flight recorder = %p, want option-installed %p", got, fr)
	}

	src := n.NewHost("src")
	r1 := n.NewRouter("r1")
	dst := n.NewHost("dst")
	n.Connect(src, 1, r1, 1)
	n.Connect(r1, 2, dst, 1)

	auth := token.NewAuthority([]byte("opt-key"))
	r1.SetTokenAuthority(auth)
	r1.RequireToken(2)

	var delivered atomic.Uint64
	dst.Handle(0, func(Delivery) { delivered.Add(1) })

	tok := auth.Issue(token.Spec{Account: 7, Port: 2})
	route := []viper.Segment{{Port: 1}, {Port: 2, PortToken: tok}, {Port: viper.PortLocal}}
	if err := src.Send(route, []byte("charged")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return delivered.Load() == 1 })

	col.Collect()
	e, ok := led.Totals()[7]
	if !ok || e.Packets != 1 {
		t.Fatalf("ledger entry for account 7 = %+v (ok=%v), want 1 packet via option-registered source", e, ok)
	}
}
