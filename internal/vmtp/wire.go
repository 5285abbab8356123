// Package vmtp implements a VMTP-style transaction transport (Cheriton,
// RFC 1045) with the properties §4 of the Sirpent paper requires of a
// transport running over a network layer that offers no checksums, no
// TTL and no fragmentation:
//
//   - 64-bit entity identifiers unique independent of network addresses,
//     so misdelivered packets are recognized and discarded (§4.1);
//   - a 32-bit millisecond creation timestamp in every packet, enforcing
//     the maximum packet lifetime end-to-end with approximately
//     synchronized clocks instead of router-updated TTLs (§4.2);
//   - packet groups with selective retransmission and rate-based (paced)
//     transmission, handling large logical packets without network-layer
//     fragmentation (§4.3);
//   - transactional request/response with RTT estimation and failover
//     across alternate source routes (§6.3).
//
// One transaction machine (machine.go) holds all of this and does no
// I/O: its inputs are a call issued, a packet arrived, a handler's
// answer and a timer fired; its outputs are packets to send, timers to
// arm or stop, requests to serve and calls finished. A call finishes one
// way, through its done callback. Two drivers run the machine. Endpoint
// runs it under sim.Engine with a synchronous handler and calls done in
// the step. RT runs it on the wall clock behind a mutex: an arrival is
// stepped on the goroutine that delivers it, and handlers run on
// workers that park between requests (so a complete request is acked
// before it is answered, and a blocked handler holds up no other); it
// runs done after the step releases the mutex, recycles call state and
// lends handlers pooled request bytes, so a steady-state transaction
// allocates only the bytes it hands on.
// Both drivers return a request's bytes by one rule (release). RT.Start
// is its asynchronous call and RT.Call the blocking one.
package vmtp

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"

	"repro/internal/clock"
)

// HeaderLen is the encoded VMTP header size.
const HeaderLen = 40

// MaxGroupPackets is the packet-group size limit imposed by the 32-bit
// delivery mask.
const MaxGroupPackets = 32

// MaxPacketData is the default segment size: the paper sizes VIPER's
// 1500-byte unit as "roughly 1 kilobyte transport packet plus up to 500
// bytes of VIPER header information" (§5).
const MaxPacketData = 1024

// Kind discriminates VMTP packets.
type Kind uint8

const (
	KindRequest Kind = iota
	KindResponse
	KindAck // carries the receiver's delivery mask for selective retransmission
)

func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	case KindAck:
		return "ack"
	}
	return "?"
}

// Header is the VMTP packet header.
type Header struct {
	Client   uint64 // client entity identifier
	Server   uint64 // server entity identifier
	Txn      uint32 // transaction identifier
	Kind     Kind
	PktIndex uint8  // index within the packet group
	NPkts    uint8  // packets in the group
	Flags    uint8  // FlagProbe; other bits reserved
	Mask     uint32 // delivery mask (acks)
	TotalLen uint32 // total message length across the group
	// Timestamp is the creation time in milliseconds (§4.2); receivers
	// discard packets older than the acceptable maximum packet
	// lifetime.
	Timestamp clock.Timestamp
}

// Packet is a VMTP header plus its data slice of the message.
type Packet struct {
	Header
	Data []byte
}

// Errors.
var (
	ErrShort       = errors.New("vmtp: short packet")
	ErrChecksum    = errors.New("vmtp: checksum mismatch")
	ErrGroupTooBig = errors.New("vmtp: message exceeds one packet group")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// zeroSum stands in for the checksum field while a sum is verified.
var zeroSum [4]byte

// Encode serializes the packet with its trailing CRC-32C over header and
// data — the transport checksum Sirpent relies on ("Because Sirpent does
// not use a checksum", §4.1; VMTP carries checksum and timestamp in the
// trailer).
func (p *Packet) Encode() []byte { return p.appendEncoded(nil) }

// appendEncoded appends the encoded packet to b, so a sender can lay a
// whole step's packets out in one buffer.
func (p *Packet) appendEncoded(b []byte) []byte {
	off, n := len(b), HeaderLen+len(p.Data)
	b = slices.Grow(b, n)[:off+n]
	w := b[off:]
	binary.BigEndian.PutUint64(w[0:8], p.Client)
	binary.BigEndian.PutUint64(w[8:16], p.Server)
	binary.BigEndian.PutUint32(w[16:20], p.Txn)
	w[20] = byte(p.Kind)
	w[21] = p.PktIndex
	w[22] = p.NPkts
	w[23] = p.Flags
	binary.BigEndian.PutUint32(w[24:28], p.Mask)
	binary.BigEndian.PutUint32(w[28:32], p.TotalLen)
	binary.BigEndian.PutUint32(w[32:36], uint32(p.Timestamp))
	copy(w[HeaderLen:], p.Data)
	// The checksum field is zero while the sum is computed over the
	// whole packet, then filled in.
	copy(w[36:40], zeroSum[:])
	sum := crc32.Checksum(w, crcTable)
	binary.BigEndian.PutUint32(w[36:40], sum)
	return b
}

// Decode parses and verifies an encoded packet.
func Decode(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := p.decodeInto(b); err != nil {
		return nil, err
	}
	if len(p.Data) > 0 {
		p.Data = append([]byte(nil), p.Data...)
	}
	return p, nil
}

// decodeInto is Decode into p, with p.Data aliasing b: it allocates
// nothing. p is left untouched when b is not a valid packet.
func (p *Packet) decodeInto(b []byte) error {
	if len(b) < HeaderLen {
		return ErrShort
	}
	// The sum was computed with its own field zeroed; feed the CRC the
	// same bytes piecewise rather than copying the packet to zero it.
	crc := crc32.Update(0, crcTable, b[:36])
	crc = crc32.Update(crc, crcTable, zeroSum[:])
	if crc32.Update(crc, crcTable, b[40:]) != binary.BigEndian.Uint32(b[36:40]) {
		return ErrChecksum
	}
	*p = Packet{
		Header: Header{
			Client:    binary.BigEndian.Uint64(b[0:8]),
			Server:    binary.BigEndian.Uint64(b[8:16]),
			Txn:       binary.BigEndian.Uint32(b[16:20]),
			Kind:      Kind(b[20]),
			PktIndex:  b[21],
			NPkts:     b[22],
			Flags:     b[23],
			Mask:      binary.BigEndian.Uint32(b[24:28]),
			TotalLen:  binary.BigEndian.Uint32(b[28:32]),
			Timestamp: clock.Timestamp(binary.BigEndian.Uint32(b[32:36])),
		},
	}
	if len(b) > HeaderLen {
		p.Data = b[HeaderLen:]
	}
	return nil
}

// Segment splits a message into equal-size per-packet chunks (last chunk
// may be shorter) such that each fits in maxData bytes. Equal chunking
// lets the receiver place packet i at offset i·ChunkSize(TotalLen,NPkts)
// without knowing the sender's configuration.
func Segment(msg []byte, maxData int) ([][]byte, error) {
	g, err := packetize(nil, msg, maxData, Header{})
	if err != nil {
		return nil, err
	}
	pkts := g.packets()
	out := make([][]byte, len(pkts))
	for i := range pkts {
		out[i] = pkts[i].Data
	}
	return out, nil
}

// packetize lays a message out as one packet group: every packet
// carries h, plus its index, the group size and the message length, and
// one chunk of at most maxData bytes. A one-packet group is held inline;
// a larger one fills pkts, grown when it is too short, so a caller that
// keeps the group's slice reuses it.
func packetize(pkts []Packet, msg []byte, maxData int, h Header) (group, error) {
	if maxData <= 0 {
		maxData = MaxPacketData
	}
	n := max((len(msg)+maxData-1)/maxData, 1)
	if n > MaxGroupPackets {
		return group{}, ErrGroupTooBig
	}
	chunk := ChunkSize(len(msg), n)
	h.NPkts, h.TotalLen = uint8(n), uint32(len(msg))
	if n == 1 {
		return group{pkts: pkts[:0], one: [1]Packet{{Header: h, Data: msg}}}, nil
	}
	pkts = slices.Grow(pkts[:0], n)[:n]
	for i := range pkts {
		pkts[i] = Packet{Header: h, Data: msg[min(i*chunk, len(msg)):min((i+1)*chunk, len(msg))]}
		pkts[i].PktIndex = uint8(i)
	}
	return group{pkts: pkts}, nil
}

// ChunkSize returns the per-packet chunk size for a message of totalLen
// bytes split into n packets.
func ChunkSize(totalLen, n int) int {
	if n <= 0 {
		return totalLen
	}
	return (totalLen + n - 1) / n
}
