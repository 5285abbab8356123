package gateway

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/trace"
)

// Stream messages ride as VMTP transaction payloads: one Msg per
// transaction. The layout is deliberately tiny — VMTP already provides
// entities, transactions, segmentation, and retransmission, so the
// gateway only needs to name the stream, order its groups, and mark
// open/close:
//
//	[0]    op       (OpOpen | OpData | OpClose)
//	[1]    flags    (FlagFin | FlagTraced)
//	[2:6]  stream   big-endian uint32
//	[6:10] seq      big-endian uint32 (data group sequence within the stream)
//	OpOpen: [10:12] addr length, then the destination "host:port"
//	OpData: [10:]   payload bytes — or, with FlagTraced, a 17-byte
//	        trace.Context first, then the payload
//
// Replies are one byte: a SOCKS5 reply code (0 success), so egress
// dial outcomes map onto the SOCKS reply the ingress must send without
// translation.

// Msg ops.
const (
	OpOpen  uint8 = 1 // open a stream toward Addr; Seq is 0
	OpData  uint8 = 2 // in-order payload group (possibly empty with Fin)
	OpClose uint8 = 3 // hard teardown (error or client abort)
)

// FlagFin on an OpData message marks the sender's half of the stream
// done (TCP FIN): no groups after Seq will follow.
const FlagFin uint8 = 0x01

// FlagTraced on an OpData message means the header is followed by a
// wire-form trace.Context (stream-stage tracing): the receiver
// records its transit and write stages against that trace ID.
const FlagTraced uint8 = 0x02

// SOCKS5 reply codes (RFC 1928 §6), doubling as gateway reply codes.
const (
	ReplySuccess          uint8 = 0
	ReplyGeneralFailure   uint8 = 1
	ReplyNetUnreachable   uint8 = 3
	ReplyHostUnreachable  uint8 = 4
	ReplyConnRefused      uint8 = 5
	ReplyTTLExpired       uint8 = 6
	ReplyCmdNotSupported  uint8 = 7
	ReplyAddrNotSupported uint8 = 8
)

const msgHeaderLen = 10

// maxAddrLen bounds OpOpen destination strings (a full domain name
// plus port fits well within this).
const maxAddrLen = 512

// Msg is one gateway stream message.
type Msg struct {
	Op     uint8
	Fin    bool
	Stream uint32
	Seq    uint32
	Addr   string        // OpOpen only
	Data   []byte        // OpData only
	Ctx    trace.Context // OpData only; zero = untraced (no wire bytes)
}

// Encode renders the message to wire bytes.
func (m *Msg) Encode() []byte { return m.appendEncoded(make([]byte, 0, m.encodedLen())) }

func (m *Msg) encodedLen() int {
	n := msgHeaderLen
	switch m.Op {
	case OpOpen:
		n += 2 + len(m.Addr)
	case OpData:
		if m.Ctx.Valid() {
			n += trace.ContextWireLen
		}
		n += len(m.Data)
	}
	return n
}

// appendEncoded appends the message's wire bytes to b, so a sender can
// render it into a pooled buffer.
func (m *Msg) appendEncoded(b []byte) []byte {
	off := len(b)
	b = slices.Grow(b, m.encodedLen())[:off+m.encodedLen()]
	w := b[off:]
	w[0], w[1] = m.Op, 0
	if m.Fin {
		w[1] |= FlagFin
	}
	binary.BigEndian.PutUint32(w[2:6], m.Stream)
	binary.BigEndian.PutUint32(w[6:10], m.Seq)
	switch m.Op {
	case OpOpen:
		binary.BigEndian.PutUint16(w[10:12], uint16(len(m.Addr)))
		copy(w[12:], m.Addr)
	case OpData:
		rest := w[msgHeaderLen:]
		if m.Ctx.Valid() {
			w[1] |= FlagTraced
			rest = rest[m.Ctx.Encode(rest):]
		}
		copy(rest, m.Data)
	}
	return b
}

// Decode errors.
var (
	ErrMsgTruncated = errors.New("gateway: truncated message")
	ErrMsgBadOp     = errors.New("gateway: unknown message op")
)

// DecodeMsg parses wire bytes into *m. m.Data aliases b; m is left
// untouched when b is not a valid message.
func DecodeMsg(b []byte, m *Msg) error {
	if len(b) < msgHeaderLen {
		return ErrMsgTruncated
	}
	d := Msg{
		Op:     b[0],
		Fin:    b[1]&FlagFin != 0,
		Stream: binary.BigEndian.Uint32(b[2:6]),
		Seq:    binary.BigEndian.Uint32(b[6:10]),
	}
	switch d.Op {
	case OpOpen:
		if len(b) < msgHeaderLen+2 {
			return ErrMsgTruncated
		}
		alen := int(binary.BigEndian.Uint16(b[10:12]))
		if alen > maxAddrLen || len(b) < msgHeaderLen+2+alen {
			return ErrMsgTruncated
		}
		d.Addr = string(b[12 : 12+alen])
	case OpData:
		rest := b[msgHeaderLen:]
		if b[1]&FlagTraced != 0 {
			ctx, ok := trace.DecodeContext(rest)
			if !ok {
				return ErrMsgTruncated
			}
			d.Ctx = ctx
			rest = rest[trace.ContextWireLen:]
		}
		d.Data = rest
	case OpClose:
	default:
		return fmt.Errorf("%w: %d", ErrMsgBadOp, d.Op)
	}
	*m = d
	return nil
}

// replyCodes backs EncodeReply: byte i holds code i.
var replyCodes = func() (b [256]byte) {
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

// EncodeReply renders a one-byte gateway reply. The slice is shared and
// read-only — the response cache may retain it — so it costs nothing.
func EncodeReply(code uint8) []byte {
	i := int(code)
	return replyCodes[i : i+1 : i+1]
}

// DecodeReply parses a gateway reply; a missing or truncated reply is
// a general failure.
func DecodeReply(b []byte) uint8 {
	if len(b) < 1 {
		return ReplyGeneralFailure
	}
	return b[0]
}
