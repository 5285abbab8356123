package gateway

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

// FuzzDecodeMsg drives the stream-message decoder with arbitrary bytes:
// it must never panic, and anything it accepts must re-encode to an
// equivalent message (the decoder is the trust boundary between the
// VMTP transport and the relay).
func FuzzDecodeMsg(f *testing.F) {
	f.Add((&Msg{Op: OpOpen, Stream: 1, Seq: 0, Addr: "example.com:80"}).Encode())
	f.Add((&Msg{Op: OpData, Stream: 7, Seq: 3, Data: []byte("payload")}).Encode())
	f.Add((&Msg{Op: OpData, Stream: 7, Seq: 4, Data: []byte("traced"),
		Ctx: trace.Context{ID: 0x42, Origin: 123456789, Budget: 5}}).Encode())
	f.Add((&Msg{Op: OpData, Fin: true, Stream: 7, Seq: 9}).Encode())
	f.Add((&Msg{Op: OpClose, Stream: 2}).Encode())
	f.Add([]byte{})
	f.Add([]byte{OpOpen, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, in []byte) {
		var m, back Msg
		if err := DecodeMsg(in, &m); err != nil {
			return
		}
		out := m.Encode()
		if err := DecodeMsg(out, &back); err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		if back.Op != m.Op || back.Fin != m.Fin || back.Stream != m.Stream ||
			back.Seq != m.Seq || back.Addr != m.Addr || !bytes.Equal(back.Data, m.Data) {
			t.Fatalf("round trip changed message: %+v -> %+v", m, back)
		}
		// A valid context must survive the trip; an ID-0 context is
		// "untraced" and may legitimately normalize away.
		if m.Ctx.Valid() && back.Ctx != m.Ctx {
			t.Fatalf("round trip changed trace context: %+v -> %+v", m.Ctx, back.Ctx)
		}
	})
}
