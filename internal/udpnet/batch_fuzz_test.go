package udpnet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzGROSplit holds the ingress split to its contract. No control
// bytes make groSegment panic or return a negative size; a well-formed
// UDP_GRO message, alone or behind another message, yields its segment
// size, or 0 for a size that is not positive. Split at any size — 0,
// one larger than the read, one leaving a short last piece — a read's
// pieces tile it exactly: every piece but the last is one segment long,
// the last is no longer, and an empty read is one empty datagram.
func FuzzGROSplit(f *testing.F) {
	f.Add([]byte(nil), []byte("SIRPdatagram"), int32(4), false)
	f.Add(make([]byte, cmsgHdrLen+4), make([]byte, 100), int32(30), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 17, 0, 0, 0, 104, 0, 0, 0}, make([]byte, 10), int32(0), false)
	f.Add([]byte{1}, []byte(nil), int32(-5), true)
	f.Add([]byte(nil), make([]byte, 64), int32(65), false)
	f.Fuzz(func(t *testing.T, oob, rd []byte, seg int32, behind bool) {
		if got := groSegment(oob); got < 0 {
			t.Fatalf("groSegment(%x) = %d", oob, got)
		}

		var msg []byte
		if behind {
			// An unrelated message first, with data that needs padding.
			other := make([]byte, cmsgHdrLen+cmsgAlign)
			putCmsgHdr(other, cmsgHdrLen+1, 0, 1)
			msg = other
		}
		gro := make([]byte, cmsgHdrLen+cmsgAlign)
		putCmsgHdr(gro, cmsgHdrLen+4, solUDP, udpGRO)
		binary.NativeEndian.PutUint32(gro[cmsgHdrLen:], uint32(seg))
		msg = append(msg, gro...)
		want := max(int(seg), 0)
		if got := groSegment(msg); got != want {
			t.Fatalf("groSegment of a UDP_GRO message of %d = %d, want %d", seg, got, want)
		}

		var tiled []byte
		pieces := 0
		for rest := rd; ; {
			var dg []byte
			dg, rest = cutSegment(rest, want)
			pieces++
			if len(rest) > 0 && len(dg) != want {
				t.Fatalf("piece %d of %d bytes before the last, segment %d", pieces, len(dg), want)
			}
			if want > 0 && len(dg) > want {
				t.Fatalf("piece %d of %d bytes exceeds segment %d", pieces, len(dg), want)
			}
			tiled = append(tiled, dg...)
			if len(rest) == 0 {
				break
			}
		}
		if !bytes.Equal(tiled, rd) {
			t.Fatalf("pieces of a %d-byte read at segment %d do not tile it", len(rd), want)
		}
		if len(rd) == 0 && pieces != 1 {
			t.Fatalf("an empty read gave %d pieces, want 1", pieces)
		}
	})
}
