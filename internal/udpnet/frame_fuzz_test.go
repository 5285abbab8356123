package udpnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/livenet"
	"repro/internal/trace"
)

// FuzzParseFrame holds the framing to its two ends. No datagram makes
// parseFrame panic, and what it accepts is a suffix of the datagram.
// Every frame egress writes, TypeData and TypeTraced, parses back to
// the link, context, send stamp and payload it was framed with; an
// empty payload is the one frame egress can write that parseFrame
// rejects, at its link.
func FuzzParseFrame(f *testing.F) {
	data := append([]byte{'S', 'I', 'R', 'P', Version, TypeData, 0, 9}, "viper"...)
	traced := append([]byte{'S', 'I', 'R', 'P', Version, TypeTraced, 0, 9}, make([]byte, tracedPrefixLen)...)
	traced = append(traced, "viper"...)
	f.Add(data, uint16(9), uint64(0), int64(0), uint8(0), []byte("viper"))
	f.Add(traced, uint16(9), uint64(7), int64(1e18), uint8(3), []byte("viper"))
	f.Add([]byte{'S', 'I', 'R', 'P', Version, TypeTraced, 0, 9, 1}, uint16(0), uint64(7), int64(0), uint8(1), []byte(nil))
	f.Add([]byte{'S', 'I', 'R', 'P', Version, 0x7F, 0, 9, 0xAA}, uint16(65535), uint64(1), int64(-1), uint8(0), []byte{0})
	f.Add([]byte{'S', 'I'}, uint16(1), uint64(0), int64(0), uint8(255), []byte{0})
	tun := tunnelFixture(f, 0, nil)
	f.Fuzz(func(t *testing.T, dg []byte, link uint16, id uint64, origin int64, budget uint8, pkt []byte) {
		if fr, bad := parseFrame(dg); bad == nil {
			if len(fr.payload) == 0 || !bytes.HasSuffix(dg, fr.payload) {
				t.Fatalf("accepted payload %x is not a non-empty suffix of %x", fr.payload, dg)
			}
		}

		ctx := trace.Context{ID: id, Origin: origin, Budget: budget}
		before := time.Now().UnixNano()
		tun.linkID = link
		tun.egress([]livenet.RawFrame{{Pkt: pkt, Ctx: ctx}})
		after := time.Now().UnixNano()
		out := tun.dgs[0] // no remote: the send fails, the framing stays
		fr, bad := parseFrame(out)
		if len(pkt) == 0 {
			if bad == nil || !bad.atLink || fr.link != link {
				t.Fatalf("empty egress frame: parsed link %d, rejection %+v; want a rejection at link %d", fr.link, bad, link)
			}
			return
		}
		if bad != nil {
			t.Fatalf("egress frame rejected: %s", bad.reason)
		}
		if fr.link != link || !bytes.Equal(fr.payload, pkt) {
			t.Fatalf("parsed link %d payload %x, want %d and %x", fr.link, fr.payload, link, pkt)
		}
		wantCtx, lo, hi := trace.Context{}, int64(0), int64(0)
		if ctx.CanHop() {
			wantCtx, lo, hi = ctx.Next(), before, after
		}
		if fr.ctx != wantCtx || fr.sent < lo || fr.sent > hi {
			t.Fatalf("parsed context %+v stamp %d, want %+v stamped in [%d, %d]", fr.ctx, fr.sent, wantCtx, lo, hi)
		}
	})
}
