package livenet

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/viper"
)

// Sender binds a route to a payload length for callers that send one
// flow repeatedly. Send is Host.Send on a private copy of the route,
// with the payload length checked, so a caller may rewrite its route
// after NewSender returns.
type Sender struct {
	h       *Host
	route   []viper.Segment
	dataLen int
}

// NewSender validates a route for repeated injection and copies it.
// The route is interpreted exactly as Host.Send interprets it: the
// first segment is the sender's own directive (out port, link header),
// the rest is the source route carried by the packet.
func (h *Host) NewSender(route []viper.Segment, dataLen int) (*Sender, error) {
	if len(route) == 0 {
		return nil, fmt.Errorf("livenet: empty route")
	}
	if _, err := viper.AppendSealedRoute(nil, route[1:]); err != nil {
		return nil, err
	}
	own := make([]viper.Segment, len(route))
	for i := range route {
		own[i] = route[i].Clone()
	}
	return &Sender{h: h, route: own, dataLen: dataLen}, nil
}

// Send injects one packet carrying data, which must have the length
// the Sender was made for.
func (s *Sender) Send(data []byte) error {
	if len(data) != s.dataLen {
		return fmt.Errorf("livenet: prepared sender wants %d payload bytes, got %d", s.dataLen, len(data))
	}
	return s.h.Send(s.route, data)
}

// SetRawHandler installs a pre-decode delivery tap: every frame arriving
// at the host is handed to fn as the raw encoded packet and consumed,
// skipping VIPER decode, endpoint dispatch, and return-route
// construction. The bytes alias the frame's pooled buffer and are valid
// only until fn returns. For sinks that only count or copy — packet
// mirrors, benchmark endpoints — this removes the per-delivery decode
// and its return-route allocation. Pass nil to restore normal endpoint dispatch.
func (h *Host) SetRawHandler(fn func(pkt []byte)) {
	if fn == nil {
		h.SetRawTap(nil)
		return
	}
	h.SetRawTap(func(b []RawFrame) {
		for i := range b {
			fn(b[i].Pkt)
		}
	})
}

// RawFrame is one frame a raw tap receives: its encoded packet, which
// aliases the frame's pooled buffer, and its cross-process trace
// context, zero for untraced frames.
type RawFrame struct {
	Pkt []byte
	Ctx trace.Context
}

// SetRawTap is SetRawHandler for sinks that forward frames to another
// process (internal/udpnet's tunnels): fn takes each batch the host
// drains whole, in arrival order, with each frame's trace context, so
// the tap can carry the trace onto its transport and send the batch as
// one. The batch and its bytes are valid only until fn returns. Pass
// nil to restore normal endpoint dispatch.
func (h *Host) SetRawTap(fn func([]RawFrame)) {
	if fn == nil {
		h.raw.Store(nil)
		return
	}
	h.raw.Store(&fn)
}
