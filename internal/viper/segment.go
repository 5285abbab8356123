// Package viper implements the VIPER wire format — the Versatile
// Internetwork Protocol for Extended Routing proposed as the realization of
// the Sirpent architecture (Cheriton, SIGCOMM 1989, §5).
//
// A VIPER packet is a sequence of header segments, one per node on the
// source route, followed by user data, followed by the Sirpent trailer. The
// trailer accumulates the *return* segments appended by each node along the
// way, so the receiver can construct a return route with no routing
// knowledge of its own (§2).
//
// Header segment layout (Figure 1 of the paper):
//
//	 0                   1
//	 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	|PortInfoLength |PortTokenLength|
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	|     Port      | Flags | Prio  |
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	>          PortToken            <
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	>          PortInfo             <
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//
// A length byte of 255 means the true length is carried in the first four
// octets of the corresponding variable field, big-endian (§5). The minimum
// segment is 32 bits.
//
// Trailer segments are encoded mirrored — variable fields first, the fixed
// four octets last — so a node doing cut-through can emit its return
// segment as the tail of the packet streams past, and the receiver can walk
// the trailer backwards from the end of the packet. The packet ends with a
// four-octet trailer descriptor [count:2][flags:1][magic:1]. The paper
// leaves trailer delimiting to the implementation; this encoding is ours
// and is documented in DESIGN.md.
package viper

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol type tags. Following the paper's convention that the portInfo
// field "includes a tag field indicating the format of the rest of the
// packet", our network-specific headers end with a 16-bit type field
// (Ethernet conveniently does). EtherTypeVIPER marks "another VIPER header
// segment follows".
const (
	EtherTypeVIPER uint16 = 0x88B5 // experimental ethertype: next is a VIPER segment
	EtherTypeVMTP  uint16 = 0x88B6 // next is VMTP transport
	EtherTypeRaw   uint16 = 0x88B7 // next is raw application data
)

// MTU is the VIPER transmission unit: "The VIPER transmission unit is 1500
// bytes ... roughly 1 kilobyte transport packet plus up to 500 bytes of
// VIPER header information" (§5).
const MTU = 1500

// MaxRouteSegments bounds the number of header segments, per the paper's
// sizing example ("a maximum of 48 header segments (expected to be under
// 500 bytes long)", §2.3).
const MaxRouteSegments = 48

// MaxFieldLen caps a PortToken or PortInfo field. The wire format's length
// escape allows 32-bit lengths; we cap fields well below that to bound
// allocation from hostile input.
const MaxFieldLen = 64 * 1024

// PortLocal is the reserved port value meaning "deliver locally" (§5:
// "Reserving 0 as a special port value meaning 'local'").
const PortLocal uint8 = 0

// MaxPorts is the effective number of ports per switch: 255, ports 1..255
// (§5). Larger fan-out switches are structured hierarchically.
const MaxPorts = 255

// Flags is the 4-bit flag nibble of a segment.
type Flags uint8

const (
	// FlagVNT (VIPER Next Type) declares that the PortInfo field is void
	// (or padding) and another VIPER header segment immediately follows.
	// Used on hops, such as point-to-point links, whose portInfo carries
	// no type tag of its own.
	FlagVNT Flags = 1 << 0
	// FlagDIB (Drop If Blocked) requests the packet be dropped rather
	// than queued when its output port is busy.
	FlagDIB Flags = 1 << 1
	// FlagRPF (Reverse Path Forwarding) marks a packet returning along
	// the route and tokens supplied in a received packet.
	FlagRPF Flags = 1 << 2

	flagsMask Flags = 0x0F
)

// Has reports whether all bits of f2 are set in f.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

func (f Flags) String() string {
	s := ""
	if f.Has(FlagVNT) {
		s += "VNT,"
	}
	if f.Has(FlagDIB) {
		s += "DIB,"
	}
	if f.Has(FlagRPF) {
		s += "RPF,"
	}
	if s == "" {
		return "-"
	}
	return s[:len(s)-1]
}

// Priority is the 4-bit priority field. "Normal priority is 0 with 7
// highest priority. Priorities 6 and 7 preempt the transmission of lower
// priority packets in mid-transmission if necessary. Values with the
// high-order bit set represent lower priorities, 0xF being the lowest"
// (§5).
type Priority uint8

const (
	PriorityNormal  Priority = 0
	PriorityHighest Priority = 7
	PriorityLowest  Priority = 0xF
)

// Rank maps a priority to a totally ordered urgency: higher rank is served
// first. Priorities 0..7 rank 0..7; priorities 8..15 (high bit set) rank
// below normal, 0xF lowest.
func (p Priority) Rank() int {
	p &= 0xF
	if p < 8 {
		return int(p)
	}
	return 7 - int(p) // 8 -> -1 ... 15 -> -8
}

// Preemptive reports whether the priority may abort a lower-priority packet
// already in transmission (priorities 6 and 7).
func (p Priority) Preemptive() bool { return p == 6 || p == 7 }

// Segment is one hop of a VIPER source route: the output port to take at
// the corresponding node, the type of service, an optional authorization
// token for that port, and optional network-specific information (such as
// the next-hop header for a multi-access network on that port).
type Segment struct {
	Port      uint8
	Flags     Flags
	Priority  Priority
	PortToken []byte
	PortInfo  []byte
}

// fieldWireLen returns the encoded size of a variable field including the
// length-escape overhead (but not the 1-byte length field itself, which is
// part of the fixed prefix).
func fieldWireLen(n int) int {
	if n > 254 {
		return 4 + n
	}
	return n
}

// WireLen returns the encoded size of the segment in bytes. The minimum is
// 4 (the paper's 32-bit minimum segment).
func (s *Segment) WireLen() int {
	return 4 + fieldWireLen(len(s.PortToken)) + fieldWireLen(len(s.PortInfo))
}

// Continues reports whether another VIPER segment follows this one in the
// packet: either the VNT flag is set, or the segment's network-specific
// portInfo carries the VIPER type tag in its trailing 16 bits.
func (s *Segment) Continues() bool {
	return s.Flags.Has(FlagVNT) || tagsVIPER(s.PortInfo)
}

// tagsVIPER reports whether a portInfo ends in the VIPER type tag.
func tagsVIPER(info []byte) bool {
	n := len(info)
	return n >= 2 && binary.BigEndian.Uint16(info[n-2:]) == EtherTypeVIPER
}

// Equal reports field-by-field equality.
func (s *Segment) Equal(o *Segment) bool {
	return s.Port == o.Port && s.Flags == o.Flags && s.Priority == o.Priority &&
		bytes.Equal(s.PortToken, o.PortToken) && bytes.Equal(s.PortInfo, o.PortInfo)
}

// Clone returns a deep copy of the segment.
func (s *Segment) Clone() Segment {
	c := *s
	if s.PortToken != nil {
		c.PortToken = append([]byte(nil), s.PortToken...)
	}
	if s.PortInfo != nil {
		c.PortInfo = append([]byte(nil), s.PortInfo...)
	}
	return c
}

func (s *Segment) String() string {
	return fmt.Sprintf("seg{port=%d prio=%d flags=%s token=%dB info=%dB}",
		s.Port, s.Priority, s.Flags, len(s.PortToken), len(s.PortInfo))
}

// Errors returned by the codec.
var (
	ErrTruncatedSegment = errors.New("viper: truncated segment")
	ErrFieldTooLong     = errors.New("viper: field exceeds maximum length")
	ErrTooManySegments  = errors.New("viper: too many route segments")
	ErrBadTrailer       = errors.New("viper: malformed trailer")
)

// encodeLengths validates field lengths and returns the length bytes.
func encodeLengths(s *Segment) (pil, ptl byte, err error) {
	if len(s.PortInfo) > MaxFieldLen || len(s.PortToken) > MaxFieldLen {
		return 0, 0, ErrFieldTooLong
	}
	pil = byte(len(s.PortInfo))
	if len(s.PortInfo) > 254 {
		pil = 255
	}
	ptl = byte(len(s.PortToken))
	if len(s.PortToken) > 254 {
		ptl = 255
	}
	return pil, ptl, nil
}

// AppendSegment appends the forward (header) encoding of s to b. A
// segment with neither field is its four fixed bytes, written
// directly; the length check and escapes run only when a field is
// present.
func AppendSegment(b []byte, s *Segment) ([]byte, error) {
	if len(s.PortToken)|len(s.PortInfo) == 0 {
		return append(b, 0, 0, s.Port, fixedByte(s.Flags, s.Priority)), nil
	}
	return appendSegmentFields(b, s, s.Flags)
}

// fixedByte is the fixed prefix's last octet: flags, then priority.
func fixedByte(f Flags, p Priority) byte {
	return byte(f&flagsMask)<<4 | byte(p&0xF)
}

// appendSegmentFields is AppendSegment's general case, for a segment
// that carries a field, with flags standing in for s.Flags.
func appendSegmentFields(b []byte, s *Segment, flags Flags) ([]byte, error) {
	pil, ptl, err := encodeLengths(s)
	if err != nil {
		return b, err
	}
	b = append(b, pil, ptl, s.Port, fixedByte(flags, s.Priority))
	b = appendField(b, ptl, s.PortToken)
	b = appendField(b, pil, s.PortInfo)
	return b, nil
}

func appendField(b []byte, lenByte byte, field []byte) []byte {
	if lenByte == 255 {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(field)))
		b = append(b, l[:]...)
	}
	return append(b, field...)
}

// DecodeSegment decodes the forward encoding of the first segment in b and
// returns it along with the remaining bytes. The segment's variable fields
// are defensive copies; callers that cannot afford the copies and can
// bound the fields' lifetime use DecodeSegmentNoCopy.
func DecodeSegment(b []byte) (s Segment, rest []byte, err error) {
	if rest, err = decodeSegment(&s, b, true); err != nil {
		return Segment{}, nil, err
	}
	return s, rest, nil
}

// DecodeSegmentNoCopy is DecodeSegment without the defensive field copies:
// the returned segment's PortToken and PortInfo alias b. It exists for the
// forwarding fast path, where the segment is consumed before the buffer is
// reused; callers must not retain the fields past the lifetime of b.
func DecodeSegmentNoCopy(b []byte) (s Segment, rest []byte, err error) {
	if rest, err = decodeSegment(&s, b, false); err != nil {
		return Segment{}, nil, err
	}
	return s, rest, nil
}

// DecodeSegmentInto is DecodeSegmentNoCopy writing the segment into *s
// in place, for a caller that keeps it in a slot of its own (the batch
// kernel's). On success every field of *s is written; on error *s is
// undefined.
func DecodeSegmentInto(s *Segment, b []byte) ([]byte, error) {
	return decodeSegment(s, b, false)
}

func decodeSegment(s *Segment, b []byte, copyFields bool) ([]byte, error) {
	if len(b) < 4 {
		return nil, ErrTruncatedSegment
	}
	pil, ptl := b[0], b[1]
	s.Port = b[2]
	s.Flags = Flags(b[3]>>4) & flagsMask
	s.Priority = Priority(b[3] & 0xF)
	rest := b[4:]
	if pil|ptl == 0 {
		s.PortToken, s.PortInfo = nil, nil
		return rest, nil
	}
	var err error
	if s.PortToken, rest, err = decodeField(rest, ptl, copyFields); err != nil {
		return nil, err
	}
	if s.PortInfo, rest, err = decodeField(rest, pil, copyFields); err != nil {
		return nil, err
	}
	return rest, nil
}

func decodeField(b []byte, lenByte byte, copyField bool) (field, rest []byte, err error) {
	n := int(lenByte)
	if lenByte == 255 {
		if len(b) < 4 {
			return nil, nil, ErrTruncatedSegment
		}
		// Bound the 32-bit length before converting to int so the check
		// holds even where int is 32 bits wide.
		v := binary.BigEndian.Uint32(b)
		if v > MaxFieldLen {
			return nil, nil, ErrFieldTooLong
		}
		n = int(v)
		b = b[4:]
	}
	if len(b) < n {
		return nil, nil, ErrTruncatedSegment
	}
	if n == 0 {
		return nil, b, nil
	}
	if !copyField {
		// Cap-limit the alias so an append through it cannot scribble on
		// the bytes that follow the field.
		return b[:n:n], b[n:], nil
	}
	return append([]byte(nil), b[:n]...), b[n:], nil
}

// AppendSegmentMirrored appends the trailer (mirrored) encoding of s to b:
// variable fields first, fixed four octets last, so the segment can be
// parsed backwards from the end of the packet. Like AppendSegment, it
// writes a segment with neither field as its four fixed bytes.
func AppendSegmentMirrored(b []byte, s *Segment) ([]byte, error) {
	if len(s.PortToken)|len(s.PortInfo) == 0 {
		return append(b, 0, 0, s.Port, fixedByte(s.Flags, s.Priority)), nil
	}
	pil, ptl, err := encodeLengths(s)
	if err != nil {
		return b, err
	}
	b = append(b, s.PortToken...)
	if ptl == 255 {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(s.PortToken)))
		b = append(b, l[:]...)
	}
	b = append(b, s.PortInfo...)
	if pil == 255 {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(s.PortInfo)))
		b = append(b, l[:]...)
	}
	return append(b, pil, ptl, s.Port, fixedByte(s.Flags, s.Priority)), nil
}

// DecodeSegmentMirrored decodes the mirrored encoding of the LAST segment
// in b, returning it along with the bytes preceding it. Like
// DecodeSegment, its variable fields are defensive copies.
func DecodeSegmentMirrored(b []byte) (Segment, []byte, error) {
	var s Segment
	rest, err := decodeSegmentMirrored(&s, b, true)
	if err != nil {
		return Segment{}, nil, err
	}
	return s, rest, nil
}

// decodeSegmentMirrored decodes the mirrored segment that ends b into
// *s and returns the bytes before it. It fills *s in place, so a caller
// decoding into a slice copies no Segment; on error *s is unspecified.
func decodeSegmentMirrored(s *Segment, b []byte, copyFields bool) ([]byte, error) {
	if len(b) < 4 {
		return nil, ErrTruncatedSegment
	}
	fixed := b[len(b)-4:]
	pil, ptl := fixed[0], fixed[1]
	s.Port, s.Flags, s.Priority = fixed[2], Flags(fixed[3]>>4)&flagsMask, Priority(fixed[3]&0xF)
	rest := b[:len(b)-4]
	if pil|ptl == 0 {
		s.PortToken, s.PortInfo = nil, nil
		return rest, nil
	}
	var err error
	if s.PortInfo, rest, err = decodeFieldBackward(rest, pil, copyFields); err != nil {
		return nil, err
	}
	if s.PortToken, rest, err = decodeFieldBackward(rest, ptl, copyFields); err != nil {
		return nil, err
	}
	return rest, nil
}

func decodeFieldBackward(b []byte, lenByte byte, copyField bool) (field, rest []byte, err error) {
	n, b, err := fieldLenBackward(b, lenByte)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, b, nil
	}
	field = b[len(b)-n:]
	if !copyField {
		return field[:n:n], b[:len(b)-n], nil
	}
	return append([]byte(nil), field...), b[:len(b)-n], nil
}

// fieldLenBackward is the one definition of a mirrored field's length:
// the field whose length byte is lenByte ends b, after its length
// escape when lenByte is 255. It returns the field's length n and b
// without the escape, whose last n bytes are the field.
func fieldLenBackward(b []byte, lenByte byte) (n int, rest []byte, err error) {
	n = int(lenByte)
	if lenByte == 255 {
		if len(b) < 4 {
			return 0, nil, ErrTruncatedSegment
		}
		v := binary.BigEndian.Uint32(b[len(b)-4:])
		if v > MaxFieldLen {
			return 0, nil, ErrFieldTooLong
		}
		n = int(v)
		b = b[:len(b)-4]
	}
	if len(b) < n {
		return 0, nil, ErrTruncatedSegment
	}
	return n, b, nil
}

// skipMirrored returns the bytes before the n mirrored segments that
// end b, checking only their length bytes: it accepts and rejects
// exactly what n decodeSegmentMirrored calls do, and fills no Segment.
func skipMirrored(b []byte, n int) ([]byte, error) {
	for ; n > 0; n-- {
		if len(b) < 4 {
			return nil, ErrTruncatedSegment
		}
		pil, ptl := b[len(b)-4], b[len(b)-3]
		if pil|ptl == 0 {
			b = b[:len(b)-4]
			continue
		}
		nInfo, rest, err := fieldLenBackward(b[:len(b)-4], pil)
		if err != nil {
			return nil, err
		}
		nToken, rest, err := fieldLenBackward(rest[:len(rest)-nInfo], ptl)
		if err != nil {
			return nil, err
		}
		b = rest[:len(rest)-nToken]
	}
	return b, nil
}
