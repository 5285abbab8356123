package livenet

import "repro/internal/viper"

// This file assembles the packets a host originates. A wire image is
// the sealed route header, then the data, the mirrored origin trailer
// segment and the trailer descriptor, all encoded straight into the
// frame's buffer on every send: a host keeps no state per flow.
// Neither half materializes a viper.Packet or writes the caller's
// route: viper.AppendSealedRoute seals the route as it encodes it.

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
