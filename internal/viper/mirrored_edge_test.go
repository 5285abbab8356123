package viper

import (
	"bytes"
	"errors"
	"testing"
)

// Table-driven edge cases for the backward (mirrored) decode path, which
// parses the trailer from the end of the packet and is the half of the
// codec the per-hop strip/mirror/append discipline leans on hardest.

func TestDecodeSegmentMirroredEdgeCases(t *testing.T) {
	bigLen := []byte{0xFF, 0xFF, 0xFF, 0xFF} // 4 GiB length escape

	cases := []struct {
		name    string
		in      []byte
		wantErr error
		want    *Segment // nil when an error is expected
		rest    int      // expected residual bytes on success
	}{
		{name: "empty buffer", in: nil, wantErr: ErrTruncatedSegment},
		{name: "one byte", in: []byte{0x00}, wantErr: ErrTruncatedSegment},
		{name: "three bytes", in: []byte{0, 0, 1}, wantErr: ErrTruncatedSegment},
		{
			name: "exactly four bytes, zero-length fields",
			in:   []byte{0, 0, 7, 0x23},
			want: &Segment{Port: 7, Flags: FlagDIB, Priority: 3},
		},
		{
			name:    "token length exceeds remaining bytes",
			in:      []byte{0xAA, 0, 5, 1, 0x00}, // ptl=5 but only 1 byte precedes the fixed suffix
			wantErr: ErrTruncatedSegment,
		},
		{
			name:    "portinfo length exceeds remaining bytes",
			in:      []byte{0xAA, 3, 0, 1, 0x00}, // pil=3 but only 1 byte precedes
			wantErr: ErrTruncatedSegment,
		},
		{
			name:    "length escape with fewer than four bytes",
			in:      []byte{0xAA, 0xBB, 255, 0, 1, 0x00}, // pil=255 but only 2 bytes precede
			wantErr: ErrTruncatedSegment,
		},
		{
			name:    "length escape names an absurd length",
			in:      append(append([]byte(nil), bigLen...), 255, 0, 1, 0x00),
			wantErr: ErrFieldTooLong,
		},
		{
			name:    "length escape larger than MaxFieldLen but small wire",
			in:      append([]byte{0, 1, 0, 1}, 255, 0, 1, 0x00), // claims 65537
			wantErr: ErrFieldTooLong,
		},
		{
			name: "non-canonical escaped zero-length portinfo",
			in:   []byte{0, 0, 0, 0, 255, 0, 9, 0x10},
			want: &Segment{Port: 9, Flags: FlagVNT},
		},
		{
			name: "fields consume exactly the buffer",
			// in and want are filled below with the real encoder.
		},
	}
	// Build the "fields consume exactly the buffer" case with the real
	// encoder so it stays canonical.
	seg := Segment{Port: 12, Priority: 1, PortToken: []byte{1, 2}, PortInfo: []byte{3, 4, 5}}
	enc, err := AppendSegmentMirrored(nil, &seg)
	if err != nil {
		t.Fatal(err)
	}
	cases[len(cases)-1].in = enc
	cases[len(cases)-1].want = &seg

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, rest, err := DecodeSegmentMirrored(tc.in)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				// The same bytes as a packet's whole one-segment
				// trailer: the receive walk, which checks only length
				// bytes, must fail them as Decode does.
				pkt := append(bytes.Clone(tc.in), 0, 1, 0, trailerMagic)
				if _, err := Decode(pkt); !errors.Is(err, tc.wantErr) {
					t.Fatalf("as a trailer: Decode err = %v, want %v", err, tc.wantErr)
				}
				if _, _, _, err := DecodeDelivery(pkt, 1, nil); !errors.Is(err, tc.wantErr) {
					t.Fatalf("as a trailer: DecodeDelivery err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !got.Equal(tc.want) {
				t.Fatalf("got %v, want %v", &got, tc.want)
			}
			if len(rest) != tc.rest {
				t.Fatalf("rest = %d bytes, want %d", len(rest), tc.rest)
			}
		})
	}
}

func TestDecodeFieldBackwardEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		buf     []byte
		lenByte byte
		want    []byte
		rest    int
		wantErr error
	}{
		{name: "empty buffer zero length", buf: nil, lenByte: 0, want: nil},
		{name: "empty buffer nonzero length", buf: nil, lenByte: 1, wantErr: ErrTruncatedSegment},
		{name: "one-byte buffer exact", buf: []byte{0x7F}, lenByte: 1, want: []byte{0x7F}},
		{name: "one-byte buffer overrun", buf: []byte{0x7F}, lenByte: 2, wantErr: ErrTruncatedSegment},
		{name: "escape with short buffer", buf: []byte{1, 2, 3}, lenByte: 255, wantErr: ErrTruncatedSegment},
		{
			name:    "escape exact zero",
			buf:     []byte{0, 0, 0, 0},
			lenByte: 255,
			want:    nil,
		},
		{
			name:    "escape length exceeds remaining",
			buf:     []byte{0xAB, 0, 0, 0, 2}, // says 2 bytes follow, only 1 precedes the length
			lenByte: 255,
			wantErr: ErrTruncatedSegment,
		},
		{
			name:    "escape over MaxFieldLen",
			buf:     []byte{0, 1, 0, 1}, // 65537
			lenByte: 255,
			wantErr: ErrFieldTooLong,
		},
		{
			name:    "takes from the tail",
			buf:     []byte{1, 2, 3, 4, 5},
			lenByte: 2,
			want:    []byte{4, 5},
			rest:    3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The copying and aliasing walks must agree on every case.
			for _, copyField := range []bool{true, false} {
				field, rest, err := decodeFieldBackward(tc.buf, tc.lenByte, copyField)
				if tc.wantErr != nil {
					if !errors.Is(err, tc.wantErr) {
						t.Fatalf("copy=%v: err = %v, want %v", copyField, err, tc.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("copy=%v: unexpected error: %v", copyField, err)
				}
				if !bytes.Equal(field, tc.want) {
					t.Fatalf("copy=%v: field = %x, want %x", copyField, field, tc.want)
				}
				if len(rest) != tc.rest {
					t.Fatalf("copy=%v: rest = %d bytes, want %d", copyField, len(rest), tc.rest)
				}
			}
		})
	}
}

// TestDecodeRouteBoundSymmetry pins the decode-side route bound to the
// encode-side one: a packet whose continuation chain would exceed
// MaxRouteSegments must be rejected at decode time, because Encode could
// never have produced it and re-encoding it would fail.
func TestDecodeRouteBoundSymmetry(t *testing.T) {
	build := func(n int) []byte {
		var b []byte
		var err error
		for i := 0; i < n; i++ {
			s := Segment{Port: uint8(1 + i%200)}
			if i < n-1 {
				s.Flags = FlagVNT
			}
			if b, err = AppendSegment(b, &s); err != nil {
				t.Fatal(err)
			}
		}
		return append(b, 0, 0, 0, 0x5A) // empty trailer + descriptor
	}

	if pkt, err := Decode(build(MaxRouteSegments)); err != nil {
		t.Fatalf("%d-segment route should decode: %v", MaxRouteSegments, err)
	} else if _, err := pkt.Encode(); err != nil {
		t.Fatalf("%d-segment route should re-encode: %v", MaxRouteSegments, err)
	}

	if _, err := Decode(build(MaxRouteSegments + 1)); !errors.Is(err, ErrTooManySegments) {
		t.Fatalf("%d-segment route: err = %v, want ErrTooManySegments", MaxRouteSegments+1, err)
	}
}
