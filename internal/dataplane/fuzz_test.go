package dataplane

import (
	"bytes"
	"testing"

	"repro/internal/token"
	"repro/internal/viper"
)

// FuzzDataplaneHop drives random frames through one full pipeline hop on
// a synthetic router config — decode, decision (with and without a token
// authority), return-segment build, in-place trailer surgery — and
// checks the structural invariants the substrates rely on:
//
//   - no panic on any input (the decode stage is the only gate);
//   - the in-place surgery is byte-identical to the allocating
//     reference, and never scribbles on the original frame through the
//     return segment's aliased fields;
//   - the mirrored trailer segment decodes back to exactly the segment
//     that was appended (decode/mirror round-trip).
//
// The corpus is seeded from the viper codec corpora (testdata/fuzz) plus
// constructed well-formed packets.
func FuzzDataplaneHop(f *testing.F) {
	// Well-formed seeds: a plain two-segment route and a tokened one, as
	// a first-hop router would see them.
	for _, route := range [][]viper.Segment{
		{{Port: 2, Flags: viper.FlagVNT}, {Port: viper.PortLocal}},
		{{Port: 5, Flags: viper.FlagVNT, PortToken: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{Port: viper.PortLocal}},
		{{Port: 3, Flags: viper.FlagTRE | viper.FlagVNT, PortInfo: []byte{0, 1}},
			{Port: viper.PortLocal}},
	} {
		pkt := viper.NewPacket(route, []byte("fuzz-hop-payload"))
		pkt.Trailer = []viper.Segment{{Port: viper.PortLocal}}
		if b, err := pkt.Encode(); err == nil {
			f.Add(b)
		}
	}

	auth := token.NewAuthority([]byte("fuzz-key"))
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, rest, err := DecodeHop(data)
		if err != nil {
			return
		}
		pristine := seg.Clone()
		restCopy := append([]byte(nil), rest...)

		// Decision stage: tokens disabled, then a synthetic config with
		// an authority and one token-requiring port. Any random token is
		// an uncached unknown, so the tokened path walks
		// Decide → ActionAwaitToken → InstallToken.
		p := Pipeline{Node: "fuzz", Clock: fixedClock(1)}
		ts := (*TokenState)(nil).WithAuthority(auth).WithRequired(5)
		for _, state := range []*TokenState{nil, ts} {
			in := HopInput{InPort: 1, Seg: &seg, ChargeBytes: uint64(len(data))}
			v := p.Decide(state, &in)
			if v.Action == ActionAwaitToken {
				v = p.InstallToken(state, &in)
			}
			switch v.Action {
			case ActionForward:
				if v.OutPort != seg.Port {
					t.Fatalf("forward to %d, segment names %d", v.OutPort, seg.Port)
				}
			case ActionTree:
				if !seg.Flags.Has(viper.FlagTRE) {
					t.Fatal("tree verdict without FlagTRE")
				}
			case ActionLocal:
				if seg.Port != viper.PortLocal {
					t.Fatalf("local verdict for port %d", seg.Port)
				}
			case ActionDrop:
				if v.Reason.String() == "unknown" {
					t.Fatalf("drop with unclassified reason %d", v.Reason)
				}
			default:
				t.Fatalf("unexpected action %v", v.Action)
			}
		}

		// Mirror stage, livenet-style: re-decode from a pooled-like copy
		// with headroom so the return segment's fields alias the copy's
		// dead front region exactly as in production, then run the
		// in-place surgery there and the allocating reference on the
		// original bytes.
		hdr := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		ret := returnSegment(1, &seg, hdr, ReverseUnknown, nil, true)
		buf := make([]byte, len(data), len(data)+ret.WireLen()+64)
		copy(buf, data)
		fseg, frest, err := DecodeHop(buf)
		if err != nil {
			t.Fatalf("decode succeeded on data but not on its copy: %v", err)
		}
		fret := returnSegment(1, &fseg, hdr, ReverseUnknown, nil, false)
		fastOut, errFast := AppendTrailerSegment(frest, &fret)
		refOut, errRef := AppendTrailerSegmentRef(rest, &ret)
		if (errFast == nil) != (errRef == nil) {
			t.Fatalf("surgery error divergence: fast=%v ref=%v", errFast, errRef)
		}
		if errFast != nil {
			return
		}
		if !bytes.Equal(fastOut, refOut) {
			t.Fatalf("in-place surgery diverges from reference\nfast: %x\nref:  %x", fastOut, refOut)
		}
		// The reference path must not have modified the original frame,
		// and the decoded segment's aliased fields must be intact.
		if !seg.Equal(&pristine) {
			t.Fatal("surgery scribbled on the decoded segment's aliased fields")
		}
		if !bytes.Equal(rest, restCopy) {
			t.Fatal("reference surgery modified the input packet")
		}

		// Decode/mirror round-trip: the newly appended trailer segment
		// (just before the re-appended 4-byte descriptor) must decode
		// back to exactly what was appended.
		want := returnSegment(1, &pristine, append([]byte(nil), hdr...), ReverseUnknown, nil, true)
		got, _, err := viper.DecodeSegmentMirrored(fastOut[:len(fastOut)-4])
		if err != nil {
			t.Fatalf("mirrored trailer does not decode back: %v", err)
		}
		if !got.Equal(&want) {
			t.Fatalf("mirror round-trip mismatch:\n got %v\nwant %v", &got, &want)
		}
	})
}
