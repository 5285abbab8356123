package viper

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// trailer descriptor constants (implementation-defined; see package doc).
const (
	trailerMagic     = 0x5A
	trailerDescLen   = 4
	trailerTruncFlag = 0x01
)

// Packet is the in-memory form of a VIPER packet: the remaining forward
// route (Route[0] is the segment for the next node), the user data, and the
// trailer of return segments accumulated so far (Trailer[0] was appended by
// the first node traversed).
//
// The simulation substrate passes Packets by pointer without re-encoding at
// every hop; the live goroutine network and the codec tests exercise the
// wire form via Encode/Decode.
type Packet struct {
	Route     []Segment
	Data      []byte
	Trailer   []Segment
	Truncated bool

	// Padding is the number of null bytes inserted between the data and
	// the trailer ("A packet can be padded with null bytes between the
	// end of the actual data and beginning of the Sirpent trailer
	// without confusion", §2).
	Padding int
}

// NewPacket builds a packet with the given route and data.
func NewPacket(route []Segment, data []byte) *Packet {
	return &Packet{Route: route, Data: data}
}

// Current returns the segment for the node currently holding the packet,
// or nil if the route is exhausted.
func (p *Packet) Current() *Segment {
	if len(p.Route) == 0 {
		return nil
	}
	return &p.Route[0]
}

// Priority returns the priority of the current segment, or PriorityNormal
// once the route is exhausted.
func (p *Packet) Priority() Priority {
	if s := p.Current(); s != nil {
		return s.Priority
	}
	return PriorityNormal
}

// ConsumeHead implements the per-node Sirpent step (§2): it strips the
// current header segment from the front of the packet and appends the
// given return segment to the trailer. The return segment is constructed
// by the node: its Port is the port the packet arrived on, its PortInfo is
// the arrival network header revised to constitute a correct return hop,
// and its PortToken authorizes the reverse path if the original token did.
// It returns the stripped segment.
func (p *Packet) ConsumeHead(ret Segment) Segment {
	s := p.Route[0]
	p.Route = p.Route[1:]
	p.Trailer = append(p.Trailer, ret)
	return s
}

// ReturnRoute constructs the route for a reply from the accumulated
// trailer, per §2: segments are copied in reverse order. Each return
// segment is marked RPF ("the packet is being returned using the route and
// tokens supplied in a packet received by the currently sending host",
// §5). It is the trailer's Route decoded: the fields are capacity-capped
// windows of one fresh byte string, so the reply does not alias the
// request, in two allocations however long the trailer. Every trailer
// field must fit the wire format (MaxFieldLen), as for Encode.
func (p *Packet) ReturnRoute() []Segment {
	n := 0
	for i := range p.Trailer {
		n += p.Trailer[i].WireLen()
	}
	b, err := appendMirrored(make([]byte, 0, n), p.Trailer)
	if err != nil {
		panic(err)
	}
	return Route{b, len(p.Trailer)}.Segments(make([]Segment, 0, len(p.Trailer)))
}

// appendMirrored appends the trailer encoding of segs to b, first
// segment first.
func appendMirrored(b []byte, segs []Segment) ([]byte, error) {
	var err error
	for i := range segs {
		if b, err = AppendSegmentMirrored(b, &segs[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// CloneWire implements the simulation substrate's payload-cloning hook;
// it is equivalent to Clone.
func (p *Packet) CloneWire() any { return p.Clone() }

// Clone deep-copies the packet (used for multicast fanout).
func (p *Packet) Clone() *Packet {
	c := &Packet{Truncated: p.Truncated, Padding: p.Padding}
	c.Route = make([]Segment, len(p.Route))
	for i := range p.Route {
		c.Route[i] = p.Route[i].Clone()
	}
	c.Trailer = make([]Segment, len(p.Trailer))
	for i := range p.Trailer {
		c.Trailer[i] = p.Trailer[i].Clone()
	}
	c.Data = append([]byte(nil), p.Data...)
	return c
}

// HeaderLen returns the encoded size of the remaining route segments.
func (p *Packet) HeaderLen() int {
	n := 0
	for i := range p.Route {
		n += p.Route[i].WireLen()
	}
	return n
}

// TrailerLen returns the encoded size of the trailer including descriptor.
func (p *Packet) TrailerLen() int {
	n := trailerDescLen
	for i := range p.Trailer {
		n += p.Trailer[i].WireLen()
	}
	return n
}

// WireLen returns the total encoded packet size in bytes. The simulator
// uses this for transmission-time computation without materializing bytes.
func (p *Packet) WireLen() int {
	return p.HeaderLen() + len(p.Data) + p.Padding + p.TrailerLen()
}

// errFinalContinues reports a route whose final segment's portInfo
// carries the VIPER type tag, so no seal can end it.
var errFinalContinues = errors.New("viper: final segment portInfo carries VIPER continuation tag")

// SealRoute fixes up continuation marking on a route so it decodes
// unambiguously: every segment but the last must declare that another
// segment follows (VNT for segments whose portInfo carries no type tag),
// and the last must not. It returns an error if the final segment's
// network-specific portInfo forces continuation (a route-construction
// bug).
func SealRoute(route []Segment) error {
	for i := range route {
		last := i == len(route)-1
		if last {
			route[i].Flags &^= FlagVNT
			if route[i].Continues() {
				return errFinalContinues
			}
		} else if !route[i].Continues() {
			route[i].Flags |= FlagVNT
		}
	}
	return nil
}

// AppendSealedRoute appends the header encoding of route, sealed, to b:
// the bytes SealRoute on a copy of route and then EncodeAppend's
// header loop would produce, in one pass. route is read, never
// written: each segment's continuation fix is made on its flags as
// they are encoded. A segment with neither field is written as its
// four fixed bytes inline. It is a sending host's per-packet seal.
func AppendSealedRoute(b []byte, route []Segment) ([]byte, error) {
	if len(route) == 0 {
		return nil, fmt.Errorf("viper: cannot encode packet with empty route")
	}
	if len(route) > MaxRouteSegments {
		return nil, ErrTooManySegments
	}
	last := len(route) - 1
	for i := range route {
		s := &route[i]
		flags := s.Flags | FlagVNT
		if i == last {
			flags = s.Flags &^ FlagVNT
		}
		if len(s.PortToken)|len(s.PortInfo) == 0 {
			b = append(b, 0, 0, s.Port, fixedByte(flags, s.Priority))
			continue
		}
		if tagsVIPER(s.PortInfo) {
			if i == last {
				return nil, errFinalContinues
			}
			flags = s.Flags
		}
		var err error
		if b, err = appendSegmentFields(b, s, flags); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Encode serializes the packet: forward segments, data, padding, mirrored
// trailer segments, and the 4-byte trailer descriptor. The route must have
// at least one segment (a packet with an exhausted route has been
// delivered and never reappears on a wire).
func (p *Packet) Encode() ([]byte, error) {
	return p.EncodeAppend(make([]byte, 0, p.WireLen()))
}

// EncodeAppend appends the wire form of the packet to b and returns the
// extended slice — the allocation-free counterpart of Encode for callers
// that provision their own (typically pooled) buffers. On error the
// result is nil and b's tail past its original length is unspecified.
func (p *Packet) EncodeAppend(b []byte) ([]byte, error) {
	if len(p.Route) == 0 {
		return nil, fmt.Errorf("viper: cannot encode packet with empty route")
	}
	if len(p.Route) > MaxRouteSegments || len(p.Trailer) > MaxRouteSegments {
		return nil, ErrTooManySegments
	}
	var err error
	for i := range p.Route {
		if b, err = AppendSegment(b, &p.Route[i]); err != nil {
			return nil, err
		}
	}
	b = append(b, p.Data...)
	for i := 0; i < p.Padding; i++ {
		b = append(b, 0)
	}
	if b, err = appendMirrored(b, p.Trailer); err != nil {
		return nil, err
	}
	var desc [trailerDescLen]byte
	binary.BigEndian.PutUint16(desc[0:2], uint16(len(p.Trailer)))
	if p.Truncated {
		desc[2] |= trailerTruncFlag
	}
	desc[3] = trailerMagic
	return append(b, desc[:]...), nil
}

// AppendTrailerDescriptor appends the 4-byte descriptor that closes a
// wire image carrying n mirrored trailer segments. It is the tail
// EncodeAppend writes, exported so callers assembling wire images
// segment by segment (prepared senders, encapsulation gateways) can
// close them without materializing a Packet.
func AppendTrailerDescriptor(b []byte, n int, truncated bool) ([]byte, error) {
	if n < 0 || n > MaxRouteSegments {
		return nil, ErrTooManySegments
	}
	var desc [trailerDescLen]byte
	binary.BigEndian.PutUint16(desc[0:2], uint16(n))
	if truncated {
		desc[2] |= trailerTruncFlag
	}
	desc[3] = trailerMagic
	return append(b, desc[:]...), nil
}

// Decode parses an encoded packet. Forward segments are parsed from the
// front for as long as each segment declares a continuation (VNT flag or a
// VIPER type tag in its portInfo); the trailer is parsed backwards from
// the descriptor. Everything in between — including any null padding — is
// returned as Data.
func Decode(b []byte) (*Packet, error) {
	nTrailer, truncated, rest, err := splitTrailer(b)
	if err != nil {
		return nil, err
	}
	p := &Packet{Truncated: truncated, Trailer: make([]Segment, nTrailer)}
	// Trailer, backwards from the end. The most recently appended
	// segment is last on the wire.
	for i := nTrailer - 1; i >= 0; i-- {
		if rest, err = decodeSegmentMirrored(&p.Trailer[i], rest, true); err != nil {
			return nil, err
		}
	}
	for more := true; more; {
		p.Route = append(p.Route, Segment{})
		i := len(p.Route) - 1
		if rest, more, err = nextHeader(&p.Route[i], rest, i, true); err != nil {
			return nil, err
		}
	}
	p.Data = rest
	return p, nil
}

// Route is a delivery's return route held as wire bytes: the
// trailer's mirrored segments exactly as the packet carried them, then
// the arrival hop (port, priority, arrival header) mirrored after them,
// as the receiving host's own Sirpent step would append it. The bytes
// were validated when the Route was made and nothing writes them, so a
// Route is immutable, its bytes pointer-free and safe to keep and
// share. The zero Route is empty.
type Route struct {
	b []byte
	n int // the segments in b
}

// Len returns the number of segments in the route.
func (r Route) Len() int { return r.n }

// Segments appends the route's segments to dst in reply order, the
// arrival hop first, each marked RPF, and returns the extended slice:
// the route Decode + ConsumeHead + ReturnRoute build for the same
// packet. It walks the bytes backward with the trailer's decoder. The
// segments' fields alias the Route's bytes, capacity-capped, so they
// stay valid as long as they are kept and must never be written.
func (r Route) Segments(dst []Segment) []Segment {
	dst = slices.Grow(dst, r.n)
	for rest := r.b; len(rest) > 0; {
		dst = append(dst, Segment{})
		s := &dst[len(dst)-1]
		rest, _ = decodeSegmentMirrored(s, rest, false)
		s.Flags |= FlagRPF
	}
	return dst
}

// DecodeDelivery is a receiving host's whole Sirpent step in one pass
// over an encoded packet: Decode, then ConsumeHead with the arrival
// segment {Port: inPort, Priority: head.Priority, PortInfo: inInfo},
// then ReturnRoute. head and data alias b. ret is the return route as
// a Route of its own: a copy of the trailer's bytes with the arrival
// hop appended, one allocation, valid after b and inInfo are recycled.
// The trailer is validated by a backward walk over each segment's
// length bytes, which fills no Segment; the walk shares Decode's
// field-length check, and the forward header is parsed with Decode's
// own decoder in Decode's order, so DecodeDelivery accepts and rejects
// exactly what Decode does. An inInfo longer than MaxFieldLen, which
// no segment can carry, is ErrFieldTooLong.
func DecodeDelivery(b []byte, inPort uint8, inInfo []byte) (head Segment, data []byte, ret Route, err error) {
	nTrailer, _, rest, err := splitTrailer(b)
	if err != nil {
		return Segment{}, nil, Route{}, err
	}
	if rest, err = skipMirrored(rest, nTrailer); err != nil {
		return Segment{}, nil, Route{}, err
	}
	trailer := b[len(rest) : len(b)-trailerDescLen]
	var later Segment
	for i, s, more := 0, &head, true; more; i, s = i+1, &later {
		if rest, more, err = nextHeader(s, rest, i, false); err != nil {
			return Segment{}, nil, Route{}, err
		}
	}
	arrival := Segment{Port: inPort, Priority: head.Priority, PortInfo: inInfo}
	rb := make([]byte, len(trailer), len(trailer)+arrival.WireLen())
	copy(rb, trailer)
	if rb, err = AppendSegmentMirrored(rb, &arrival); err != nil {
		return Segment{}, nil, Route{}, err
	}
	return head, rest, Route{rb, nTrailer + 1}, nil
}

// splitTrailer checks the trailer descriptor that ends b and returns the
// trailer's segment count, its truncation flag, and the bytes before the
// descriptor.
func splitTrailer(b []byte) (n int, truncated bool, rest []byte, err error) {
	if len(b) < trailerDescLen {
		return 0, false, nil, ErrBadTrailer
	}
	desc := b[len(b)-trailerDescLen:]
	if desc[3] != trailerMagic {
		return 0, false, nil, ErrBadTrailer
	}
	n = int(binary.BigEndian.Uint16(desc[0:2]))
	if n > MaxRouteSegments {
		return 0, false, nil, ErrTooManySegments
	}
	return n, desc[2]&trailerTruncFlag != 0, b[:len(b)-trailerDescLen], nil
}

// nextHeader decodes the forward segment at the front of b, the i-th of
// the route (from 0), into *s and reports whether another follows it.
// The bound mirrors Encode's, so any packet Decode accepts can be
// re-encoded: without it a 49-segment route would decode but fail
// Encode.
func nextHeader(s *Segment, b []byte, i int, copyFields bool) (rest []byte, more bool, err error) {
	if rest, err = decodeSegment(s, b, copyFields); err != nil {
		return nil, false, err
	}
	if !s.Continues() {
		return rest, false, nil
	}
	if i+1 >= MaxRouteSegments {
		return nil, false, ErrTooManySegments
	}
	return rest, true, nil
}

func (p *Packet) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "viper.Packet{%dB data", len(p.Data))
	if p.Truncated {
		sb.WriteString(" TRUNCATED")
	}
	sb.WriteString("\n  route:")
	for i := range p.Route {
		fmt.Fprintf(&sb, "\n    %v", &p.Route[i])
	}
	sb.WriteString("\n  trailer:")
	for i := range p.Trailer {
		fmt.Fprintf(&sb, "\n    %v", &p.Trailer[i])
	}
	sb.WriteString("\n}")
	return sb.String()
}
