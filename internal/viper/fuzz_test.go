package viper

import (
	"bytes"
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
	})
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

// FuzzDecodeDelivery holds the receive fast path to its definition:
// DecodeDelivery must agree with Decode + ConsumeHead(arrival) +
// ReturnRoute on whether the input is a packet, on the head's port and
// priority, on the data, and on every return segment. Each input is
// decoded three times: with no previous arena, with the first decode's
// arena (the bytes repeat, so the route must be cut from it), and with
// an unrelated arena of the same length (which must be neither used nor
// written). Every return route must own its bytes: flipping every input
// byte afterwards leaves all three unchanged.
func FuzzDecodeDelivery(f *testing.F) {
	p := NewPacket([]Segment{{Port: PortLocal, Priority: 3}}, []byte("payload"))
	p.Trailer = []Segment{{Port: PortLocal}, {Port: 4, PortToken: []byte{1, 2, 3}}}
	if b, err := p.Encode(); err == nil {
		f.Add(b, byte(2), []byte{0xDE, 0xAD, 0x88, 0xB5})
	}
	f.Add([]byte{0, 0, 0, 0x5A}, byte(1), []byte(nil)) // descriptor only: must error, not panic
	f.Fuzz(func(t *testing.T, in []byte, inPort uint8, inInfo []byte) {
		// Work on copies: the flip below must not touch the fuzzer's input.
		b := append([]byte(nil), in...)
		info := append([]byte(nil), inInfo...)
		head, data, ret, arena, err := DecodeDelivery(b, inPort, info, nil)
		pkt, refErr := Decode(in)
		if err != refErr {
			t.Fatalf("DecodeDelivery err = %v, Decode err = %v", err, refErr)
		}
		if err != nil {
			return
		}
		want := pkt.ConsumeHead(Segment{Port: inPort, Priority: pkt.Priority(), PortInfo: inInfo})
		wantRet := pkt.ReturnRoute()
		if head.Port != want.Port || head.Priority != want.Priority {
			t.Fatalf("head = %v, want %v", &head, &want)
		}
		if !bytes.Equal(data, pkt.Data) {
			t.Fatalf("data = %x, want %x", data, pkt.Data)
		}

		_, _, again, shared, _ := DecodeDelivery(b, inPort, info, arena)
		if len(arena) > 0 && &shared[0] != &arena[0] {
			t.Fatal("repeated route bytes were copied instead of cut from the previous arena")
		}
		unrelated := []byte("unrelated")
		if len(arena) > 0 {
			unrelated = make([]byte, len(arena))
			for i := range arena {
				unrelated[i] = ^arena[i]
			}
		}
		untouched := append([]byte(nil), unrelated...)
		_, _, other, _, _ := DecodeDelivery(b, inPort, info, unrelated)
		if !bytes.Equal(unrelated, untouched) {
			t.Fatal("DecodeDelivery wrote to the previous arena")
		}

		sameRoute := func(when string) {
			for _, r := range []struct {
				prev  string
				route []Segment
			}{{"nil", ret}, {"its own", again}, {"an unrelated", other}} {
				if len(r.route) != len(wantRet) {
					t.Fatalf("%s, %s arena: return route has %d segments, want %d", when, r.prev, len(r.route), len(wantRet))
				}
				for i := range r.route {
					if !r.route[i].Equal(&wantRet[i]) {
						// Values, not pointers: %+v then prints the field bytes.
						t.Fatalf("%s, %s arena: return[%d] = %+v, want %+v", when, r.prev, i, r.route[i], wantRet[i])
					}
				}
			}
		}
		sameRoute("decoded")
		for i := range b {
			b[i] ^= 0xFF
		}
		for i := range info {
			info[i] ^= 0xFF
		}
		sameRoute("after the input was overwritten")
	})
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
