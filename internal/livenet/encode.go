package livenet

import (
	"fmt"
	"sync"

	"repro/internal/viper"
)

// This file assembles the packets a host originates. A wire image is
// the sealed route header, then the data, the mirrored origin trailer
// segment and the trailer descriptor. Every packet of a flow carries
// the same header, so a host keeps the last header it sealed
// (routeMemo) and copies it while the route repeats; only the tail is
// encoded per packet. Neither half materializes a viper.Packet or
// writes the caller's route: the continuation fixes SealRoute would
// apply are made on stack copies of each segment.

// routeWireLen returns the encoded size of the carried route (the
// sender's own directive already stripped).
func routeWireLen(route []viper.Segment) int {
	n := 0
	for i := range route {
		n += route[i].WireLen()
	}
	return n
}

// originTrailer is the origin host's own trailer segment: the packet
// starts its life with one return segment naming the local stack, so a
// full round trip ends where it began. origin is the local endpoint a
// reply should address — PortLocal for plain Send, or a specific
// endpoint for services (the gateway's VMTP endpoints) whose return
// traffic must not land on the default handler.
func originTrailer(origin uint8, ownPrio viper.Priority) viper.Segment {
	return viper.Segment{Port: origin, Priority: ownPrio}
}

// appendRoute appends the sealed wire form of a carried source route
// (without the sender's own directive) to buf. route is read, never
// written: continuation flags are fixed up on per-segment stack copies,
// exactly as viper.SealRoute would fix them in place.
func appendRoute(buf []byte, route []viper.Segment) ([]byte, error) {
	if len(route) == 0 {
		return nil, fmt.Errorf("livenet: empty route")
	}
	if len(route) > viper.MaxRouteSegments {
		return nil, viper.ErrTooManySegments
	}
	var err error
	for i := range route {
		seg := route[i] // stack copy: flag fixes must not touch the caller's route
		if i == len(route)-1 {
			seg.Flags &^= viper.FlagVNT
			if seg.Continues() {
				return nil, fmt.Errorf("livenet: final segment portInfo carries VIPER continuation tag")
			}
		} else if !seg.Continues() {
			seg.Flags |= viper.FlagVNT
		}
		if buf, err = viper.AppendSegment(buf, &seg); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendTail appends what follows the route header of an origin
// packet: data, the mirrored origin trailer segment, and the
// descriptor.
func appendTail(buf, data []byte, origin uint8, ownPrio viper.Priority) ([]byte, error) {
	buf = append(buf, data...)
	tr := originTrailer(origin, ownPrio)
	buf, err := viper.AppendSegmentMirrored(buf, &tr)
	if err != nil {
		return nil, err
	}
	return viper.AppendTrailerDescriptor(buf, 1, false)
}

// tailLen returns the exact byte length appendTail produces.
func tailLen(dataLen int, ownPrio viper.Priority) int {
	tr := originTrailer(viper.PortLocal, ownPrio)
	return dataLen + tr.WireLen() + 4
}

// routeMemo is a host's last sealed route header: the carried route as
// the caller gave it, with its field bytes copied, and its wire form.
// Senders on any goroutine share it under mu. A miss re-encodes into
// the memo's own buffers, so once they have grown to the routes the
// host sends, neither a hit nor a miss allocates.
type routeMemo struct {
	mu     sync.Mutex
	route  []viper.Segment // fields are windows of fields; empty until a route seals
	fields []byte
	hdr    []byte
}

// appendSealed appends route's sealed header to buf: the memo's copy
// while route repeats the memo's route, a fresh encode otherwise, which
// becomes the memo's. route must not be empty.
func (m *routeMemo) appendSealed(buf []byte, route []viper.Segment) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.repeats(route) {
		hdr, err := appendRoute(m.hdr[:0], route)
		if err != nil {
			// The failed encode overwrote the old header's bytes.
			m.route = m.route[:0]
			return nil, err
		}
		m.hdr = hdr
		m.keep(route)
	}
	return append(buf, m.hdr...), nil
}

// repeats reports whether route is the memo's route, field for field.
func (m *routeMemo) repeats(route []viper.Segment) bool {
	if len(route) != len(m.route) {
		return false
	}
	for i := range route {
		if !route[i].Equal(&m.route[i]) {
			return false
		}
	}
	return true
}

// keep makes route the memo's, copying its field bytes: the caller may
// rewrite its route after the send returns.
func (m *routeMemo) keep(route []viper.Segment) {
	m.fields = m.fields[:0]
	for i := range route {
		m.fields = append(m.fields, route[i].PortToken...)
		m.fields = append(m.fields, route[i].PortInfo...)
	}
	m.route = append(m.route[:0], route...)
	off := 0
	for i := range m.route {
		s := &m.route[i]
		nt, ni := len(s.PortToken), len(s.PortInfo)
		s.PortToken, s.PortInfo = m.fields[off:off+nt], m.fields[off+nt:off+nt+ni]
		off += nt + ni
	}
}
