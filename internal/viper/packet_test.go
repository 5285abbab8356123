package viper

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// ethInfo builds a fake 14-byte Ethernet portInfo whose trailing ethertype
// is typ.
func ethInfo(dst, src byte, typ uint16) []byte {
	info := make([]byte, 14)
	for i := 0; i < 6; i++ {
		info[i] = dst
		info[6+i] = src
	}
	binary.BigEndian.PutUint16(info[12:], typ)
	return info
}

func testRoute() []Segment {
	return []Segment{
		{Port: 3, Priority: 2, PortInfo: ethInfo(0x22, 0x11, EtherTypeVIPER)},
		{Port: 7, Priority: 2, Flags: FlagVNT}, // point-to-point hop
		{Port: 1, Priority: 2, PortInfo: ethInfo(0x44, 0x33, EtherTypeVIPER)},
		{Port: PortLocal, Priority: 2}, // host-local delivery
	}
}

func TestPacketEncodeDecodeRoundTrip(t *testing.T) {
	route := testRoute()
	if err := SealRoute(route); err != nil {
		t.Fatal(err)
	}
	p := NewPacket(route, []byte("hello, sirpent"))
	p.Trailer = []Segment{
		{Port: 2, Priority: 2, PortInfo: ethInfo(0x11, 0x22, EtherTypeVIPER)},
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != p.WireLen() {
		t.Errorf("encoded %d bytes, WireLen says %d", len(b), p.WireLen())
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Route) != len(p.Route) {
		t.Fatalf("decoded %d route segments, want %d", len(got.Route), len(p.Route))
	}
	for i := range p.Route {
		if !got.Route[i].Equal(&p.Route[i]) {
			t.Errorf("route[%d] mismatch: %v vs %v", i, got.Route[i], p.Route[i])
		}
	}
	if len(got.Trailer) != 1 || !got.Trailer[0].Equal(&p.Trailer[0]) {
		t.Errorf("trailer mismatch: %+v", got.Trailer)
	}
	if !bytes.Equal(got.Data, p.Data) {
		t.Errorf("data mismatch: %q vs %q", got.Data, p.Data)
	}
	if got.Truncated {
		t.Error("spurious truncation flag")
	}
}

func TestPacketPaddingSurvives(t *testing.T) {
	route := []Segment{{Port: PortLocal}}
	p := NewPacket(route, []byte("abc"))
	p.Padding = 5
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	// Padding is indistinguishable from data at the VIPER layer; the
	// transport carries its own length (§2 footnote, §4).
	want := append([]byte("abc"), 0, 0, 0, 0, 0)
	if !bytes.Equal(got.Data, want) {
		t.Fatalf("data = %x, want %x", got.Data, want)
	}
}

func TestPacketTruncatedFlag(t *testing.T) {
	p := NewPacket([]Segment{{Port: PortLocal}}, []byte("x"))
	p.Truncated = true
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated {
		t.Fatal("truncation flag lost")
	}
}

func TestEncodeEmptyRouteFails(t *testing.T) {
	p := NewPacket(nil, []byte("x"))
	if _, err := p.Encode(); err == nil {
		t.Fatal("encoding empty-route packet should fail")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	p := NewPacket([]Segment{{Port: 0}}, nil)
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if _, err := Decode(b); err != ErrBadTrailer {
		t.Fatalf("err = %v, want ErrBadTrailer", err)
	}
}

func TestDecodeRejectsShortPacket(t *testing.T) {
	if _, err := Decode([]byte{1, 2}); err != ErrBadTrailer {
		t.Fatalf("err = %v, want ErrBadTrailer", err)
	}
}

func TestDecodeRejectsHugeTrailerCount(t *testing.T) {
	b := []byte{0, 0, 0, 0, 0xFF, 0xFF, 0, trailerMagic}
	if _, err := Decode(b); err != ErrTooManySegments {
		t.Fatalf("err = %v, want ErrTooManySegments", err)
	}
}

func TestConsumeHeadAndReturnRoute(t *testing.T) {
	route := testRoute()
	p := NewPacket(route, []byte("data"))
	var rets []Segment
	hop := 0
	for len(p.Route) > 0 {
		ret := Segment{
			Port:     uint8(100 + hop), // arrival port at this node
			Priority: p.Priority(),
			PortInfo: ethInfo(byte(hop), byte(hop+1), EtherTypeVIPER),
		}
		rets = append(rets, ret)
		s := p.ConsumeHead(ret)
		if s.Port != route[hop].Port {
			t.Fatalf("hop %d consumed port %d, want %d", hop, s.Port, route[hop].Port)
		}
		hop++
	}
	if hop != 4 {
		t.Fatalf("consumed %d hops, want 4", hop)
	}
	rr := p.ReturnRoute()
	if len(rr) != 4 {
		t.Fatalf("return route has %d segments, want 4", len(rr))
	}
	// The return route is the trailer reversed, with RPF set.
	for i := range rr {
		want := rets[len(rets)-1-i]
		if rr[i].Port != want.Port {
			t.Errorf("return[%d].Port = %d, want %d", i, rr[i].Port, want.Port)
		}
		if !rr[i].Flags.Has(FlagRPF) {
			t.Errorf("return[%d] missing RPF flag", i)
		}
		if !bytes.Equal(rr[i].PortInfo, want.PortInfo) {
			t.Errorf("return[%d] portInfo mismatch", i)
		}
	}
	// Deep copy: mutating the return route must not touch the trailer.
	rr[0].PortInfo[0] = 0xEE
	if p.Trailer[len(p.Trailer)-1].PortInfo[0] == 0xEE {
		t.Error("ReturnRoute aliases trailer storage")
	}
}

// tokenedTrailer is a five-hop trailer as a gateway delivery sees it:
// four tokened router hops (one with an Ethernet header) and the
// origin's bare segment.
func tokenedTrailer() *Packet {
	p := NewPacket(nil, []byte("data"))
	p.Trailer = []Segment{{Port: PortLocal}}
	for i := 0; i < 4; i++ {
		s := Segment{Port: uint8(1 + i), PortToken: bytes.Repeat([]byte{byte(0xA0 + i)}, 24)}
		if i == 2 {
			s.PortInfo = ethInfo(1, 2, EtherTypeVIPER)
		}
		p.Trailer = append(p.Trailer, s)
	}
	return p
}

// TestReturnRouteAllocs pins the one copy of the trailer: a
// five-segment tokened trailer reverses in two allocations (the
// segment slice and the Route's byte string), not one per copied field.
func TestReturnRouteAllocs(t *testing.T) {
	p := tokenedTrailer()
	if allocs := testing.AllocsPerRun(100, func() { p.ReturnRoute() }); allocs > 2 {
		t.Fatalf("ReturnRoute allocates %.0f times, want <= 2", allocs)
	}
}

// TestReturnRouteFieldsIndependent checks that the fields, windows of
// one byte string, are capacity-limited: appending to one returned field must reallocate
// rather than overwrite the field laid out after it.
func TestReturnRouteFieldsIndependent(t *testing.T) {
	p := tokenedTrailer()
	rr := p.ReturnRoute()
	next := append([]byte(nil), rr[1].PortToken...)
	rr[0].PortToken = append(rr[0].PortToken, 0xFF, 0xFF, 0xFF, 0xFF)
	if !bytes.Equal(rr[1].PortToken, next) {
		t.Fatalf("append to return[0] token overwrote return[1]: %x, want %x", rr[1].PortToken, next)
	}
	if len(rr[4].PortToken) != 0 || rr[4].PortToken != nil {
		t.Fatalf("origin segment token = %x, want nil", rr[4].PortToken)
	}
}

// TestReturnRouteRoundTripProperty checks the paper's central reversal
// property: if a packet traverses route R accumulating return segments,
// and the reply traverses the return route the same way, the reply's
// return route equals the original forward description (ports of arrival
// swapped back). We model each node i as having a well-defined "other
// side" port mapping.
func TestReturnRouteRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(10)
		fwd := make([]Segment, n)
		arrival := make([]uint8, n) // port each node receives on
		for i := range fwd {
			fwd[i] = Segment{Port: uint8(1 + r.Intn(255)), Priority: Priority(r.Intn(8))}
			arrival[i] = uint8(1 + r.Intn(255))
		}
		p := NewPacket(cloneSegs(fwd), []byte("req"))
		for i := 0; i < n; i++ {
			p.ConsumeHead(Segment{Port: arrival[i], Priority: p.Priority()})
		}
		reply := NewPacket(p.ReturnRoute(), []byte("resp"))
		// Reply traverses nodes in reverse; node n-1-i receives the
		// reply on the port it originally forwarded out of.
		for i := 0; i < n; i++ {
			orig := n - 1 - i
			if reply.Route[0].Port != arrival[orig] {
				t.Fatalf("trial %d hop %d: reply port %d, want %d", trial, i, reply.Route[0].Port, arrival[orig])
			}
			reply.ConsumeHead(Segment{Port: fwd[orig].Port, Priority: reply.Priority()})
		}
		// The reply's return route should name the original forward ports.
		back := reply.ReturnRoute()
		for i := range back {
			if back[i].Port != fwd[i].Port {
				t.Fatalf("trial %d: double reversal broke port %d: %d != %d", trial, i, back[i].Port, fwd[i].Port)
			}
		}
	}
}

func cloneSegs(in []Segment) []Segment {
	out := make([]Segment, len(in))
	for i := range in {
		out[i] = in[i].Clone()
	}
	return out
}

func TestSealRoute(t *testing.T) {
	route := []Segment{
		{Port: 1}, // no portInfo: needs VNT
		{Port: 2, PortInfo: ethInfo(1, 2, EtherTypeVIPER)}, // typed continuation
		{Port: 3, PortInfo: ethInfo(3, 4, EtherTypeVMTP)},  // typed, non-continuing mid-route: needs... it has typed info, Continues()==false, so VNT is set
		{Port: PortLocal, Flags: FlagVNT},                  // last: VNT must be cleared
	}
	if err := SealRoute(route); err != nil {
		t.Fatal(err)
	}
	if !route[0].Continues() || !route[1].Continues() || !route[2].Continues() {
		t.Error("intermediate segments must continue after SealRoute")
	}
	if route[3].Continues() {
		t.Error("final segment must not continue")
	}

	bad := []Segment{{Port: 1, PortInfo: ethInfo(1, 2, EtherTypeVIPER)}}
	if err := SealRoute(bad); err == nil {
		t.Error("SealRoute should reject a final segment with VIPER continuation tag")
	}
}

func TestPaperSizingClaims(t *testing.T) {
	// §2.3: "using VIPER ... a maximum of 48 header segments (expected to
	// be under 500 bytes long)". 48 minimal point-to-point segments are
	// 192 bytes; 48 segments averaging the paper's 18-byte Ethernet-hop
	// cost would be 864, but the paper's expectation mixes hop types. We
	// verify the minimal and a representative mixed route.
	route := make([]Segment, MaxRouteSegments)
	for i := range route {
		route[i] = Segment{Port: uint8(i + 1), Flags: FlagVNT}
	}
	p := NewPacket(route, nil)
	if p.HeaderLen() != 192 {
		t.Errorf("48 minimal segments = %d bytes, want 192", p.HeaderLen())
	}
	if p.HeaderLen() >= 500 {
		t.Errorf("minimal 48-segment header %d bytes, paper expects under 500", p.HeaderLen())
	}

	tooMany := make([]Segment, MaxRouteSegments+1)
	for i := range tooMany {
		tooMany[i] = Segment{Flags: FlagVNT}
	}
	if _, err := NewPacket(tooMany, nil).Encode(); err != ErrTooManySegments {
		t.Errorf("err = %v, want ErrTooManySegments", err)
	}
}

func TestPacketClone(t *testing.T) {
	route := testRoute()
	p := NewPacket(route, []byte("data"))
	p.ConsumeHead(Segment{Port: 9, PortInfo: []byte{1, 2}})
	c := p.Clone()
	c.Route[0].Port = 200
	c.Data[0] = 'X'
	c.Trailer[0].PortInfo[0] = 0xFF
	if p.Route[0].Port == 200 || p.Data[0] == 'X' || p.Trailer[0].PortInfo[0] == 0xFF {
		t.Fatal("Clone aliases original")
	}
}

func TestPacketString(t *testing.T) {
	p := NewPacket(testRoute(), []byte("x"))
	s := p.String()
	if len(s) == 0 || s[0] != 'v' {
		t.Fatalf("String() = %q", s)
	}
}

func TestPropertyPacketRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(8)
		route := make([]Segment, n)
		for i := range route {
			route[i] = genSegment(r)
			// Keep continuation semantics decodable: strip portInfo
			// that would accidentally claim VIPER continuation on the
			// last segment, then seal.
			if i == n-1 && route[i].Continues() && !route[i].Flags.Has(FlagVNT) {
				route[i].PortInfo = nil
			}
		}
		if err := SealRoute(route); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		nt := r.Intn(5)
		trailer := make([]Segment, nt)
		for i := range trailer {
			trailer[i] = genSegment(r)
		}
		data := make([]byte, r.Intn(256))
		r.Read(data)
		p := &Packet{Route: route, Data: data, Trailer: trailer, Truncated: r.Intn(2) == 1}
		b, err := p.Encode()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("trial %d decode: %v", trial, err)
		}
		if len(got.Route) != n || len(got.Trailer) != nt || !bytes.Equal(got.Data, data) || got.Truncated != p.Truncated {
			t.Fatalf("trial %d: structural mismatch (route %d/%d trailer %d/%d)", trial, len(got.Route), n, len(got.Trailer), nt)
		}
		for i := range route {
			if !got.Route[i].Equal(&route[i]) {
				t.Fatalf("trial %d: route[%d] mismatch", trial, i)
			}
		}
		for i := range trailer {
			if !got.Trailer[i].Equal(&trailer[i]) {
				t.Fatalf("trial %d: trailer[%d] mismatch", trial, i)
			}
		}
	}
}

// segmentBenchCases are the segment shapes the codec benchmarks time:
// the field-less 4-byte segment every fwd_min hop carries, one with a
// 16-byte token and a 14-byte Ethernet portInfo, and the field-less
// segment in the mirrored (trailer) encoding.
var segmentBenchCases = []struct {
	name     string
	seg      Segment
	mirrored bool
}{
	{"fieldless", Segment{Port: 3, Priority: 2}, false},
	{"token", Segment{Port: 3, Priority: 2, PortToken: make([]byte, 16), PortInfo: make([]byte, 14)}, false},
	{"mirrored", Segment{Port: 3, Priority: 2}, true},
}

func BenchmarkSegmentEncode(b *testing.B) {
	for _, c := range segmentBenchCases {
		b.Run(c.name, func(b *testing.B) {
			s := c.seg
			buf := make([]byte, 0, 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if c.mirrored {
					buf, err = AppendSegmentMirrored(buf[:0], &s)
				} else {
					buf, err = AppendSegment(buf[:0], &s)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSegmentDecode times the no-copy decoders a forwarding hop
// and a delivery use: DecodeSegmentInto, and the mirrored decoder
// Route.Segments walks.
func BenchmarkSegmentDecode(b *testing.B) {
	for _, c := range segmentBenchCases {
		b.Run(c.name, func(b *testing.B) {
			var buf []byte
			var err error
			if c.mirrored {
				buf, err = AppendSegmentMirrored(nil, &c.seg)
			} else {
				buf, err = AppendSegment(nil, &c.seg)
			}
			if err != nil {
				b.Fatal(err)
			}
			var s Segment
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.mirrored {
					_, err = decodeSegmentMirrored(&s, buf, false)
				} else {
					_, err = DecodeSegmentInto(&s, buf)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPacketEncode(b *testing.B) {
	route := testRoute()
	if err := SealRoute(route); err != nil {
		b.Fatal(err)
	}
	p := NewPacket(route, make([]byte, 1024))
	b.ReportAllocs()
	b.SetBytes(int64(p.WireLen()))
	for i := 0; i < b.N; i++ {
		if _, err := p.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}
