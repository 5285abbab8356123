package viper

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// The fuzz targets enforce the codec invariants every other layer builds
// on: decoding never panics on hostile input, anything a decoder accepts
// the encoder can reproduce, a second decode of that re-encoding is a
// fixpoint, and the forward and mirrored encodings describe the same
// segment. Seed corpora live under testdata/fuzz/ (regenerate with
// `go test -run TestRegenerateFuzzCorpus -regen-corpus`).

// mustAppendSegment encodes a segment that a decoder just accepted; a
// failure is itself an invariant violation (decode admitted a segment the
// encoder rejects).
func mustAppendSegment(t *testing.T, s *Segment, mirrored bool) []byte {
	t.Helper()
	var b []byte
	var err error
	if mirrored {
		b, err = AppendSegmentMirrored(nil, s)
	} else {
		b, err = AppendSegment(nil, s)
	}
	if err != nil {
		t.Fatalf("decoded segment %v fails to re-encode (mirrored=%v): %v", s, mirrored, err)
	}
	return b
}

func FuzzDecodeSegment(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0x12})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{2, 3, 7, 0x25, 0xAA, 0xBB, 0xCC, 0x88, 0xB5})
	f.Add([]byte{255, 0, 1, 0, 0, 0, 0, 0}) // escaped zero-length portInfo
	f.Add([]byte{0, 0, 1})                  // truncated fixed prefix
	f.Fuzz(func(t *testing.T, b []byte) {
		seg, rest, err := DecodeSegment(b)
		if err != nil {
			return
		}
		if len(rest) > len(b) {
			t.Fatalf("rest grew: %d -> %d bytes", len(b), len(rest))
		}
		// encode∘decode identity: the accepted segment re-encodes
		// canonically and decodes back to itself with nothing left over.
		enc := mustAppendSegment(t, &seg, false)
		seg2, rest2, err := DecodeSegment(enc)
		if err != nil {
			t.Fatalf("re-encoding of %v does not decode: %v", &seg, err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-encoding of %v leaves %d residual bytes", &seg, len(rest2))
		}
		if !seg2.Equal(&seg) {
			t.Fatalf("decode(encode(s)) = %v, want %v", &seg2, &seg)
		}
		if got := seg.WireLen(); got != len(enc) {
			t.Fatalf("WireLen = %d, canonical encoding is %d bytes", got, len(enc))
		}
		// The no-copy path, into a slot holding stale fields, decodes
		// the same segment, and on both paths an empty field is nil.
		slot := Segment{PortToken: []byte{1}, PortInfo: []byte{2}}
		if _, err := DecodeSegmentInto(&slot, b); err != nil {
			t.Fatalf("DecodeSegmentInto rejects what DecodeSegment accepts: %v", err)
		}
		if !slot.Equal(&seg) {
			t.Fatalf("DecodeSegmentInto = %v, DecodeSegment = %v", &slot, &seg)
		}
		assertEmptyFieldsNil(t, &seg, "copying")
		assertEmptyFieldsNil(t, &slot, "no-copy")
	})
}

// assertEmptyFieldsNil fails unless each zero-length field of s is nil.
func assertEmptyFieldsNil(t *testing.T, s *Segment, path string) {
	t.Helper()
	if len(s.PortToken) == 0 && s.PortToken != nil {
		t.Fatalf("%s decode: empty PortToken is non-nil", path)
	}
	if len(s.PortInfo) == 0 && s.PortInfo != nil {
		t.Fatalf("%s decode: empty PortInfo is non-nil", path)
	}
}

func FuzzDecodeSegmentMirrored(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0x12})
	f.Add([]byte{0xAA, 0xBB, 0x88, 0xB5, 2, 2, 7, 0x25})
	f.Add([]byte{0, 0, 0, 0, 255, 0, 1, 0}) // escaped zero-length portInfo
	f.Add([]byte{1, 0})                     // truncated fixed suffix
	f.Fuzz(func(t *testing.T, b []byte) {
		seg, rest, err := DecodeSegmentMirrored(b)
		if err != nil {
			return
		}
		if len(rest) > len(b) {
			t.Fatalf("rest grew: %d -> %d bytes", len(b), len(rest))
		}
		enc := mustAppendSegment(t, &seg, true)
		seg2, rest2, err := DecodeSegmentMirrored(enc)
		if err != nil {
			t.Fatalf("mirrored re-encoding of %v does not decode: %v", &seg, err)
		}
		if len(rest2) != 0 {
			t.Fatalf("mirrored re-encoding of %v leaves %d residual bytes", &seg, len(rest2))
		}
		if !seg2.Equal(&seg) {
			t.Fatalf("mirrored decode(encode(s)) = %v, want %v", &seg2, &seg)
		}
		// Forward/mirrored symmetry: the same segment carried through the
		// forward encoding must survive unchanged.
		fwd := mustAppendSegment(t, &seg, false)
		seg3, _, err := DecodeSegment(fwd)
		if err != nil {
			t.Fatalf("forward encoding of mirrored-decoded %v does not decode: %v", &seg, err)
		}
		if !seg3.Equal(&seg) {
			t.Fatalf("forward/mirrored asymmetry: %v vs %v", &seg3, &seg)
		}
		slot := Segment{PortToken: []byte{1}, PortInfo: []byte{2}}
		if _, err := decodeSegmentMirrored(&slot, b, false); err != nil {
			t.Fatalf("no-copy mirrored decode rejects what the copying one accepts: %v", err)
		}
		if !slot.Equal(&seg) {
			t.Fatalf("no-copy mirrored decode = %v, copying = %v", &slot, &seg)
		}
		assertEmptyFieldsNil(t, &seg, "copying mirrored")
		assertEmptyFieldsNil(t, &slot, "no-copy mirrored")
	})
}

func FuzzDecodeDAG(f *testing.F) {
	if info, err := EncodeDAG(nil, [][]Segment{{{Port: 3}, {Port: PortLocal}}}); err == nil {
		f.Add(info)
	}
	f.Add([]byte{dagMagic, 0, 0, 0, 0, 0})                         // zero alternates
	f.Add([]byte{dagMagic, 1, 0, 4, 0, 0, 3, 0x12, 0, 0, 0, 0})    // bad trailing tag
	f.Add([]byte{dagMagic, 2, 0, 4, 0, 0, 3, 0x12, 0, 9, 0, 0x5A}) // branch length overrun
	f.Fuzz(func(t *testing.T, b []byte) {
		// Real DAG blobs live inside a segment's PortInfo, so they are
		// bounded by MaxFieldLen; beyond that re-encoding may rightly
		// refuse what a lenient decode of oversized input accepted.
		if len(b) > MaxFieldLen {
			return
		}
		pinfo, alts, err := DecodeDAG(b)
		if err != nil {
			return
		}
		// Anything DecodeDAG accepts must re-encode canonically...
		enc, err := EncodeDAG(pinfo, alts)
		if err != nil {
			t.Fatalf("decoded DAG blob fails to re-encode: %v", err)
		}
		// ...and the re-encoding must be a semantic fixpoint.
		pinfo2, alts2, err := DecodeDAG(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !bytes.Equal(pinfo2, pinfo) {
			t.Fatalf("primary info changed: %x -> %x", pinfo, pinfo2)
		}
		if len(alts2) != len(alts) {
			t.Fatalf("alternate count changed: %d -> %d", len(alts), len(alts2))
		}
		for r := range alts {
			if len(alts2[r]) != len(alts[r]) {
				t.Fatalf("rank %d segment count changed: %d -> %d", r, len(alts[r]), len(alts2[r]))
			}
			for i := range alts[r] {
				if !alts2[r][i].Equal(&alts[r][i]) {
					t.Fatalf("rank %d seg[%d] changed: %v -> %v", r, i, &alts[r][i], &alts2[r][i])
				}
			}
		}
		// The zero-alloc scanners the hop kernel uses must agree with the
		// full decode on the canonical encoding.
		seg := Segment{Port: 1, Flags: FlagTRE, PortInfo: enc}
		if !IsDAGSegment(&seg) {
			t.Fatal("canonical encoding not recognized as DAG segment")
		}
		pi, ok := DAGPrimaryInfo(&seg)
		if !ok {
			t.Fatal("DAGPrimaryInfo rejects what DecodeDAG accepted")
		}
		if !bytes.Equal(pi, pinfo) {
			t.Fatalf("DAGPrimaryInfo = %x, DecodeDAG primary = %x", pi, pinfo)
		}
		var ports [MaxAlternates]uint8
		n, ok := DAGAlternatePorts(&seg, &ports)
		if !ok || n != len(alts) {
			t.Fatalf("DAGAlternatePorts = (%d,%v), want (%d,true)", n, ok, len(alts))
		}
		for r := range alts {
			if ports[r] != alts[r][0].Port {
				t.Fatalf("rank %d head port scan = %d, decode = %d", r, ports[r], alts[r][0].Port)
			}
			branch, err := DAGAlternate(&seg, r)
			if err != nil {
				t.Fatalf("DAGAlternate(rank %d): %v", r, err)
			}
			if len(branch) != len(alts[r]) {
				t.Fatalf("DAGAlternate(rank %d) has %d segments, want %d", r, len(branch), len(alts[r]))
			}
			for i := range branch {
				if !branch[i].Equal(&alts[r][i]) {
					t.Fatalf("DAGAlternate(rank %d)[%d] = %v, want %v", r, i, &branch[i], &alts[r][i])
				}
			}
		}
	})
}

// FuzzDecodeDelivery holds the receive fast path to its definition.
// A sequence of packets runs through it — the input, the input again,
// the input with its last trailer byte changed, the same bytes under a
// count one lower and one higher, the input under another arrival
// header, and the input once more. At every step DecodeDelivery must
// agree with Decode on the error, the head and the data, and its Route
// must decode (Segments) to the route Decode + ConsumeHead(arrival) +
// ReturnRoute build for the same bytes, and count as many segments
// (Len). Every Route must own its bytes: a repeat gets a copy of its
// own, and after each step its frame and header are overwritten, and
// every Route kept so far, and every segment slice decoded from one,
// must still hold what it held.
func FuzzDecodeDelivery(f *testing.F) {
	p := NewPacket([]Segment{{Port: PortLocal, Priority: 3}}, []byte("payload"))
	p.Trailer = []Segment{{Port: PortLocal}, {Port: 4, PortToken: []byte{1, 2, 3}}}
	if b, err := p.Encode(); err == nil {
		f.Add(b, byte(2), []byte{0xDE, 0xAD, 0x88, 0xB5})
	}
	f.Add([]byte{0, 0, 0, 0x5A}, byte(1), []byte(nil)) // descriptor only: must error, not panic
	f.Fuzz(func(t *testing.T, in []byte, inPort uint8, inInfo []byte) {
		type kept struct {
			name      string
			ret       Route
			got, want []Segment
		}
		var held []kept
		// step decodes private copies of frame and info, compares the
		// result with Decode, and overwrites the copies.
		step := func(name string, frame, info []byte) (Route, bool) {
			b, ib := bytes.Clone(frame), bytes.Clone(info)
			head, data, ret, err := DecodeDelivery(b, inPort, ib)
			pkt, refErr := Decode(frame)
			if refErr == nil && len(info) > MaxFieldLen {
				// No segment carries such a header: the delivery fails
				// where ReturnRoute could not build it.
				if err != ErrFieldTooLong {
					t.Fatalf("%s: %d-byte arrival header: err = %v, want ErrFieldTooLong", name, len(info), err)
				}
				return Route{}, false
			}
			if !errors.Is(err, refErr) {
				t.Fatalf("%s: DecodeDelivery err = %v, Decode err = %v", name, err, refErr)
			}
			if err != nil {
				return Route{}, false
			}
			if !head.Equal(&pkt.Route[0]) || !bytes.Equal(data, pkt.Data) {
				t.Fatalf("%s: head %v data %x, Decode head %v data %x", name, &head, data, &pkt.Route[0], pkt.Data)
			}
			pkt.ConsumeHead(Segment{Port: inPort, Priority: pkt.Priority(), PortInfo: bytes.Clone(info)})
			want := pkt.ReturnRoute()
			got := ret.Segments(nil)
			sameRoute(t, name+" against Decode", got, want)
			if n := ret.Len(); n != len(want) {
				t.Fatalf("%s: Len() = %d, want %d", name, n, len(want))
			}
			held = append(held, kept{name, ret, got, want})
			for i := range b {
				b[i] ^= 0xFF
			}
			for i := range ib {
				ib[i] ^= 0xFF
			}
			for _, k := range held {
				sameRoute(t, k.name+", after "+name+" was overwritten", k.got, k.want)
				sameRoute(t, k.name+" decoded again, after "+name+" was overwritten", k.ret.Segments(nil), k.want)
			}
			return ret, true
		}

		first, ok := step("first", in, inInfo)
		if !ok {
			return
		}
		if again, _ := step("repeat", in, inInfo); &again.b[0] == &first.b[0] {
			t.Fatal("repeat: the route shares the first delivery's bytes instead of owning a copy")
		}
		if n := len(in); n >= 5 {
			tail := bytes.Clone(in)
			tail[n-5] ^= 0x01
			step("changed tail byte", tail, inInfo)
		}
		for _, d := range []int{-1, 1} {
			other := bytes.Clone(in)
			count := binary.BigEndian.Uint16(other[len(other)-4:])
			binary.BigEndian.PutUint16(other[len(other)-4:], count+uint16(d))
			step(fmt.Sprintf("count %+d", d), other, inInfo)
		}
		other := append(bytes.Clone(inInfo), 0x5A)
		if len(inInfo) > 0 {
			other = bytes.Clone(inInfo)
			other[len(other)-1] ^= 0x01
		}
		step("other arrival header", in, other)
		step("first again", in, inInfo)
	})
}

// sameRoute fails unless got and want are equal segment by segment.
func sameRoute(t *testing.T, when string, got, want []Segment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: return route has %d segments, want %d", when, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(&want[i]) {
			// Values, not pointers: %+v then prints the field bytes.
			t.Fatalf("%s: return[%d] = %+v, want %+v", when, i, got[i], want[i])
		}
	}
}

func FuzzPacketRoundTrip(f *testing.F) {
	// A couple of valid encodings as starting points; the richer corpus
	// is in testdata/fuzz/FuzzPacketRoundTrip.
	p := NewPacket([]Segment{{Port: 5, Flags: FlagVNT}, {Port: PortLocal}}, []byte("payload"))
	p.Trailer = []Segment{{Port: 9, Priority: 3}}
	if b, err := p.Encode(); err == nil {
		f.Add(b)
	}
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0x5A}) // minimal packet: one segment + empty trailer
	f.Add([]byte{0, 0, 0, 0x5A})             // descriptor only (no route): must error, not panic
	f.Fuzz(func(t *testing.T, b []byte) {
		pkt, err := Decode(b)
		if err != nil {
			return
		}
		// Anything Decode accepts must re-encode...
		enc, err := pkt.Encode()
		if err != nil {
			t.Fatalf("decoded packet fails to re-encode: %v\n%v", err, pkt)
		}
		// ...and the re-encoding must be a semantic fixpoint.
		pkt2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if len(pkt2.Route) != len(pkt.Route) || len(pkt2.Trailer) != len(pkt.Trailer) {
			t.Fatalf("segment counts changed: route %d->%d trailer %d->%d",
				len(pkt.Route), len(pkt2.Route), len(pkt.Trailer), len(pkt2.Trailer))
		}
		for i := range pkt.Route {
			if !pkt2.Route[i].Equal(&pkt.Route[i]) {
				t.Fatalf("route[%d] changed: %v -> %v", i, &pkt.Route[i], &pkt2.Route[i])
			}
		}
		for i := range pkt.Trailer {
			if !pkt2.Trailer[i].Equal(&pkt.Trailer[i]) {
				t.Fatalf("trailer[%d] changed: %v -> %v", i, &pkt.Trailer[i], &pkt2.Trailer[i])
			}
		}
		if !bytes.Equal(pkt2.Data, pkt.Data) {
			t.Fatalf("data changed: %d bytes -> %d bytes", len(pkt.Data), len(pkt2.Data))
		}
		if pkt2.Truncated != pkt.Truncated {
			t.Fatalf("truncated flag changed: %v -> %v", pkt.Truncated, pkt2.Truncated)
		}
	})
}

// sealFuzzRoute reads a route of 1 to MaxRouteSegments segments from
// fuzz input: a count byte, then per segment its port, its flags and
// priority octet, and two 9-bit field lengths (up to 511 bytes, past
// the 255 escape) followed by the fields' bytes. Input that runs out
// reads as zeros.
func sealFuzzRoute(b []byte) []Segment {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	field := func(n int) []byte {
		if n == 0 {
			return nil
		}
		f := make([]byte, n)
		b = b[copy(f, b):]
		return f
	}
	route := make([]Segment, 1+int(next())%MaxRouteSegments)
	for i := range route {
		s := &route[i]
		s.Port = next()
		fp := next()
		s.Flags, s.Priority = Flags(fp>>4), Priority(fp&0xF)
		nTok := int(next())<<8 | int(next())
		nInfo := int(next())<<8 | int(next())
		s.PortToken = field(nTok & 0x1FF)
		s.PortInfo = field(nInfo & 0x1FF)
	}
	return route
}

// sealFuzzInput is sealFuzzRoute's inverse, for seeds.
func sealFuzzInput(route ...Segment) []byte {
	b := []byte{byte(len(route) - 1)}
	for i := range route {
		s := &route[i]
		b = append(b, s.Port, byte(s.Flags)<<4|byte(s.Priority),
			byte(len(s.PortToken)>>8), byte(len(s.PortToken)),
			byte(len(s.PortInfo)>>8), byte(len(s.PortInfo)))
		b = append(b, s.PortToken...)
		b = append(b, s.PortInfo...)
	}
	return b
}

// FuzzAppendSealedRoute pins the one-pass seal to its definition:
// AppendSealedRoute appends exactly the header bytes SealRoute on a
// copy and then EncodeAppend's header loop produce, or both fail, and
// the caller's route is left as it was.
func FuzzAppendSealedRoute(f *testing.F) {
	tagged := []byte{0xAA, 0xBB, byte(EtherTypeVIPER >> 8), byte(EtherTypeVIPER & 0xFF)}
	for _, n := range []int{0, 1, 254, 255, 300} {
		f.Add(sealFuzzInput(Segment{Port: 1, PortToken: make([]byte, n)}, Segment{Port: 2, PortInfo: make([]byte, n)}))
	}
	f.Add(sealFuzzInput(Segment{Port: 1}, Segment{Port: 2, Priority: 7}, Segment{Port: PortLocal}))
	f.Add(sealFuzzInput(Segment{Port: 1, Flags: FlagVNT | FlagDIB}, Segment{Port: 2, Flags: FlagVNT}))
	f.Add(sealFuzzInput(Segment{Port: 1, PortInfo: tagged}, Segment{Port: 2, Flags: FlagRPF}))
	f.Add(sealFuzzInput(Segment{Port: 1, Flags: FlagVNT}, Segment{Port: 2, PortInfo: tagged}))
	f.Add(sealFuzzInput(make([]Segment, MaxRouteSegments)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		route := sealFuzzRoute(in)
		orig := make([]Segment, len(route))
		for i := range route {
			orig[i] = route[i].Clone()
		}
		prefix := []byte{0xDE, 0xAD}
		got, errGot := AppendSealedRoute(prefix[:2:2], route)

		var want []byte
		sealed := make([]Segment, len(orig))
		for i := range orig {
			sealed[i] = orig[i].Clone()
		}
		errWant := SealRoute(sealed)
		if errWant == nil {
			var enc []byte
			if enc, errWant = (&Packet{Route: sealed}).EncodeAppend(append([]byte(nil), prefix...)); errWant == nil {
				want = enc[:len(enc)-trailerDescLen]
			}
		}
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("AppendSealedRoute err = %v, SealRoute+EncodeAppend err = %v", errGot, errWant)
		}
		if errGot == nil && !bytes.Equal(got, want) {
			t.Fatalf("AppendSealedRoute = %x\nwant                %x", got, want)
		}
		for i := range route {
			if !route[i].Equal(&orig[i]) {
				t.Fatalf("AppendSealedRoute wrote route[%d]: %v, was %v", i, &route[i], &orig[i])
			}
		}
	})
}
