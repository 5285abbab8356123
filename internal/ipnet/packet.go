// Package ipnet implements the internetwork-datagram baseline the paper
// argues against (§1): IP-style routers with destination-based routing
// tables, per-packet TTL updates, header checksums, store-and-forward
// switching, fragmentation/reassembly, and a periodic distance-vector
// routing protocol whose reconvergence time experiment E6 measures.
//
// It runs on the same netsim substrate as the Sirpent stack so the two
// architectures face identical links, so differences in delay and loss
// come from the architectures, not the plumbing.
package ipnet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Addr is a 32-bit internetwork address: a 16-bit network number and a
// 16-bit host number. (The real IP's class structure is irrelevant to the
// experiments; the two-level structure is what the routing tables key on.)
type Addr uint32

// MakeAddr builds an address from network and host numbers.
func MakeAddr(network, host uint16) Addr {
	return Addr(uint32(network)<<16 | uint32(host))
}

// Network returns the network number.
func (a Addr) Network() uint16 { return uint16(a >> 16) }

// Host returns the host number.
func (a Addr) Host() uint16 { return uint16(a) }

func (a Addr) String() string { return fmt.Sprintf("%d.%d", a.Network(), a.Host()) }

// HeaderLen is the encoded header size in bytes (a fixed 20-byte header,
// like optionless IPv4).
const HeaderLen = 20

// DefaultTTL is the initial time-to-live in hops.
const DefaultTTL = 32

// Protocol numbers.
const (
	ProtoRaw uint8 = 0 // application payload
)

// Flag bits in the flags/fragment-offset word.
const (
	flagMoreFragments = 0x2000
	fragOffsetMask    = 0x1FFF
)

// Header is the datagram header. Fragment offsets are in 8-byte units, as
// in IP.
type Header struct {
	TOS        uint8
	ID         uint16
	MoreFrags  bool
	FragOffset uint16 // in 8-byte units
	TTL        uint8
	Proto      uint8
	Src, Dst   Addr
}

// Packet is a datagram: header plus payload. It implements
// netsim.Payload.
type Packet struct {
	Header
	Payload []byte
	// BadChecksum marks a corrupted header; routers discard such
	// packets immediately, as IP's header checksum dictates.
	BadChecksum bool
	// TotalLen is the length of the ORIGINAL unfragmented datagram's
	// payload; receivers use it to know when reassembly is complete.
	TotalLen int
}

// WireLen implements netsim.Payload.
func (p *Packet) WireLen() int { return HeaderLen + len(p.Payload) }

// CloneWire implements netsim.Payload.
func (p *Packet) CloneWire() any {
	c := *p
	c.Payload = append([]byte(nil), p.Payload...)
	return &c
}

// Errors.
var (
	ErrShortHeader = errors.New("ipnet: short header")
	ErrBadChecksum = errors.New("ipnet: header checksum mismatch")
	ErrBadVersion  = errors.New("ipnet: bad version")
)

// EncodeHeader serializes the header with a freshly computed checksum.
// The layout mirrors optionless IPv4: version/IHL, TOS, total length, ID,
// flags/offset, TTL, protocol, checksum, src, dst.
func (p *Packet) EncodeHeader() []byte {
	b := make([]byte, HeaderLen)
	b[0] = 0x45 // version 4, IHL 5 words
	b[1] = p.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(HeaderLen+len(p.Payload)))
	binary.BigEndian.PutUint16(b[4:6], p.ID)
	fo := p.FragOffset & fragOffsetMask
	if p.MoreFrags {
		fo |= flagMoreFragments
	}
	binary.BigEndian.PutUint16(b[6:8], fo)
	b[8] = p.TTL
	b[9] = p.Proto
	// checksum at [10:12] computed last
	binary.BigEndian.PutUint32(b[12:16], uint32(p.Src))
	binary.BigEndian.PutUint32(b[16:20], uint32(p.Dst))
	binary.BigEndian.PutUint16(b[10:12], Checksum(b))
	return b
}

// DecodeHeader parses and verifies an encoded header.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, ErrShortHeader
	}
	if b[0] != 0x45 {
		return Header{}, ErrBadVersion
	}
	sum := binary.BigEndian.Uint16(b[10:12])
	cp := append([]byte(nil), b[:HeaderLen]...)
	cp[10], cp[11] = 0, 0
	if Checksum(cp) != sum {
		return Header{}, ErrBadChecksum
	}
	fo := binary.BigEndian.Uint16(b[6:8])
	return Header{
		TOS:        b[1],
		ID:         binary.BigEndian.Uint16(b[4:6]),
		MoreFrags:  fo&flagMoreFragments != 0,
		FragOffset: fo & fragOffsetMask,
		TTL:        b[8],
		Proto:      b[9],
		Src:        Addr(binary.BigEndian.Uint32(b[12:16])),
		Dst:        Addr(binary.BigEndian.Uint32(b[16:20])),
	}, nil
}

// Checksum computes the Internet checksum (RFC 1071) of b with the
// checksum field assumed zero.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// Fragment splits a packet into fragments whose payloads fit within
// mtuPayload bytes each (rounded down to a multiple of 8, as IP requires).
// A packet that already fits is returned unchanged.
func Fragment(p *Packet, mtuPayload int) ([]*Packet, error) {
	if len(p.Payload) <= mtuPayload {
		return []*Packet{p}, nil
	}
	unit := mtuPayload &^ 7
	if unit <= 0 {
		return nil, fmt.Errorf("ipnet: MTU too small to fragment (payload budget %d)", mtuPayload)
	}
	var out []*Packet
	base := int(p.FragOffset) * 8
	for off := 0; off < len(p.Payload); off += unit {
		end := off + unit
		more := true
		if end >= len(p.Payload) {
			end = len(p.Payload)
			more = p.MoreFrags // the last piece inherits the original's flag
		}
		f := &Packet{
			Header:   p.Header,
			Payload:  append([]byte(nil), p.Payload[off:end]...),
			TotalLen: p.TotalLen,
		}
		f.FragOffset = uint16((base + off) / 8)
		f.MoreFrags = more
		out = append(out, f)
	}
	return out, nil
}
