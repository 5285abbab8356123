package udpnet

import (
	"encoding/binary"
	"net/netip"
)

// Batched socket I/O. A tunnel's egress sends a run of equal-size
// datagrams as one UDP_SEGMENT (GSO) send, and the bridge's read loop
// splits a UDP_GRO-coalesced read back into datagrams. Both ends speak
// Linux's control-message layout; offload (offload_linux.go,
// offload_other.go) decides whether egress ever tries it.
const (
	// maxBatch bounds the segments of one GSO send; older kernels
	// refuse more than 64 (UDP_MAX_SEGMENTS).
	maxBatch = 64

	// maxRunBytes bounds one GSO send, which the kernel sends as one
	// UDP datagram of at most 65507 payload bytes.
	maxRunBytes = 64000

	// groAfter is the number of datagrams the read loop takes one by
	// one before it turns UDP_GRO on (DESIGN §12, "Batched socket I/O").
	groAfter = 64

	// Linux's UDP socket level and its offload option numbers
	// (linux/udp.h): UDP_SEGMENT carries a send's segment size,
	// UDP_GRO turns receive coalescing on and, as a control message,
	// carries a coalesced read's segment size.
	solUDP     = 17
	udpSegment = 103
	udpGRO     = 104

	// cmsgAlign is the alignment of a control message and the size of
	// its length field (a size_t); cmsgHdrLen adds the int32 level and
	// type.
	cmsgAlign  = 4 << (^uintptr(0) >> 63)
	cmsgHdrLen = cmsgAlign + 8

	// gsoOOBLen is the space of one UDP_SEGMENT control message, whose
	// data is a uint16; groOOBLen leaves the read loop room for the
	// UDP_GRO message and any other the kernel adds.
	gsoOOBLen = cmsgHdrLen + (2+cmsgAlign-1)&^(cmsgAlign-1)
	groOOBLen = 64
)

// runEnd returns the end of the GSO run that starts at dgs[i]: the
// datagrams after it of the same size, and then at most one shorter
// one, up to maxBatch datagrams and maxRunBytes bytes. A longer
// datagram starts the next run.
func runEnd(dgs [][]byte, i int) int {
	seg := len(dgs[i])
	total := seg
	j := i + 1
	for ; j < len(dgs) && j-i < maxBatch; j++ {
		n := len(dgs[j])
		if n > seg || total+n > maxRunBytes {
			break
		}
		total += n
		if n < seg {
			return j + 1
		}
	}
	return j
}

// sendRun hands a run, its datagrams back to back in b, to the socket
// as one UDP_SEGMENT send segmented at seg, its first datagram's size.
// It counts nothing but the send; the caller owns the fallback.
func (t *Tunnel) sendRun(b []byte, seg int, to netip.AddrPort) error {
	oob := t.oob[:]
	putCmsgHdr(oob, cmsgHdrLen+2, solUDP, udpSegment)
	binary.NativeEndian.PutUint16(oob[cmsgHdrLen:], uint16(seg))
	_, _, err := t.bridge.conn.WriteMsgUDPAddrPort(b, oob, to)
	return err
}

// putCmsgHdr writes a control-message header of length n.
func putCmsgHdr(b []byte, n int, level, typ int32) {
	if cmsgAlign == 8 {
		binary.NativeEndian.PutUint64(b, uint64(n))
	} else {
		binary.NativeEndian.PutUint32(b, uint32(n))
	}
	binary.NativeEndian.PutUint32(b[cmsgAlign:], uint32(level))
	binary.NativeEndian.PutUint32(b[cmsgAlign+4:], uint32(typ))
}

// groSegment returns the segment size a UDP_GRO control message in oob
// carries, or 0 when oob holds none: the read is then one datagram.
// Malformed control bytes read as none.
func groSegment(oob []byte) int {
	for len(oob) >= cmsgHdrLen {
		var n uint64
		if cmsgAlign == 8 {
			n = binary.NativeEndian.Uint64(oob)
		} else {
			n = uint64(binary.NativeEndian.Uint32(oob))
		}
		if n < cmsgHdrLen || n > uint64(len(oob)) {
			return 0
		}
		level := int32(binary.NativeEndian.Uint32(oob[cmsgAlign:]))
		typ := int32(binary.NativeEndian.Uint32(oob[cmsgAlign+4:]))
		if level == solUDP && typ == udpGRO && n >= cmsgHdrLen+4 {
			if seg := int32(binary.NativeEndian.Uint32(oob[cmsgHdrLen:])); seg > 0 {
				return int(seg)
			}
			return 0
		}
		next := (n + cmsgAlign - 1) &^ (cmsgAlign - 1)
		if next >= uint64(len(oob)) {
			return 0
		}
		oob = oob[next:]
	}
	return 0
}

// cutSegment splits the next datagram off a coalesced read: the first
// seg bytes of rd, or all of rd when seg is 0 or rd is no longer.
func cutSegment(rd []byte, seg int) (dg, rest []byte) {
	if seg <= 0 || len(rd) <= seg {
		return rd, nil
	}
	return rd[:seg], rd[seg:]
}
