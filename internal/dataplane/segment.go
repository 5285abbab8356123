package dataplane

import (
	"encoding/binary"
	"errors"

	"repro/internal/token"
	"repro/internal/viper"
)

// ErrShortTrailer reports a packet too short to carry the four-octet
// trailer descriptor the mirror surgery rewrites.
var ErrShortTrailer = errors.New("dataplane: packet too short for trailer descriptor")

// DecodeHop decodes the leading header segment of an encoded packet for
// one forwarding hop, without copying: the returned segment's PortToken
// and PortInfo alias b, and rest is the packet starting at the next
// segment. This is the pipeline's decode stage on the wire-bytes
// substrate, one frame at a time; DecideBatch decodes each slot in
// place (viper.DecodeSegmentInto) instead, and the decoded-packet
// substrate reads Packet.Current. Callers must not retain the aliased
// fields past the buffer's lifetime (DESIGN.md §7, §10).
func DecodeHop(b []byte) (viper.Segment, []byte, error) {
	return viper.DecodeSegmentNoCopy(b)
}

// ReturnSegment builds the trailer segment that makes a hop reversible
// (§2, §2.2): the port the packet arrived on, the consumed segment's
// priority and DIB flag, the arrival network header with source and
// destination already swapped (portInfo — the caller performs the swap,
// in place on livenet, on a decoded copy on netsim), and the packet's
// token when it authorizes the reverse route. rev is what the hop's
// verdict learned about reverse use (Verdict.Reverse): a token whose
// spec denies it is withheld from the trailer. Only when rev is
// ReverseUnknown is the cache consulted: a cached spec decides, and an
// unknown — optimistically admitted — token rides along and is checked
// on the return trip.
//
// The segment is written into *ret, every field of it, one field at a
// time: a caller's stack slot on livenet, the arrival's trailer entry
// on netsim. Assigning a composite literal instead makes the compiler
// stage the segment on the stack and copy it over, a store-forwarding
// stall that read 5.7 % of fwd_min's CPU.
//
// Ownership: portInfo is aliased as handed in; the caller cedes it to
// the segment. copyToken selects a defensive copy of the token bytes
// (netsim, where the trailer outlives the arrival) versus aliasing
// (livenet, where the mirrored append copies the bytes into the trailer
// before the buffer moves on).
func ReturnSegment(ret *viper.Segment, inPort uint8, seg *viper.Segment, portInfo []byte, rev Reverse, cache *token.Cache, copyToken bool) {
	ret.Port, ret.Priority, ret.Flags = inPort, seg.Priority, seg.Flags&viper.FlagDIB
	ret.PortInfo, ret.PortToken = portInfo, nil
	if len(seg.PortToken) == 0 || rev == ReverseWithheld {
		return
	}
	if rev == ReverseUnknown && cache != nil {
		if spec, ok := cache.SpecFor(seg.PortToken); ok && !spec.ReverseOK {
			return
		}
	}
	if copyToken {
		ret.PortToken = append([]byte(nil), seg.PortToken...)
	} else {
		ret.PortToken = seg.PortToken
	}
}

// AppendTrailerSegment inserts a mirrored segment before the trailer
// descriptor of an encoded packet and bumps the count — pure byte
// surgery on the tail, as a cut-through implementation would perform in
// its loopback register (§6.2). The surgery happens in pkt's own
// buffer: the 4-byte descriptor is saved to the stack, overwritten by
// the mirrored segment, and re-appended; with enough spare capacity the
// hop allocates nothing. The caller cedes the buffer — pkt's tail is
// rewritten even when an error or a reallocation occurs, so on a
// reallocated result the old buffer holds garbage past the descriptor
// offset.
func AppendTrailerSegment(pkt []byte, seg *viper.Segment) ([]byte, error) {
	if len(pkt) < 4 {
		return nil, ErrShortTrailer
	}
	descOff := len(pkt) - 4
	var desc [4]byte
	copy(desc[:], pkt[descOff:])
	out, err := viper.AppendSegmentMirrored(pkt[:descOff], seg)
	if err != nil {
		return nil, err
	}
	out = append(out, desc[:]...)
	binary.BigEndian.PutUint16(out[len(out)-4:len(out)-2], binary.BigEndian.Uint16(desc[:2])+1)
	return out, nil
}

// AppendTrailerSegmentRef is the allocating reference implementation of
// the same surgery: it builds the result in a fresh buffer and leaves
// pkt untouched. Tests and the FuzzDataplaneHop target pin the in-place
// fast path byte-for-byte against it.
func AppendTrailerSegmentRef(pkt []byte, seg *viper.Segment) ([]byte, error) {
	if len(pkt) < 4 {
		return nil, ErrShortTrailer
	}
	descOff := len(pkt) - 4
	count := binary.BigEndian.Uint16(pkt[descOff : descOff+2])
	out := make([]byte, 0, len(pkt)+seg.WireLen())
	out = append(out, pkt[:descOff]...)
	var err error
	out, err = viper.AppendSegmentMirrored(out, seg)
	if err != nil {
		return nil, err
	}
	out = append(out, pkt[descOff:]...)
	binary.BigEndian.PutUint16(out[len(out)-4:len(out)-2], count+1)
	return out, nil
}
