package gateway

import (
	"net"
	"slices"

	"repro/internal/livenet"
	"repro/internal/viper"
)

// Egress is the destination-facing gateway: it serves Open messages by
// dialing the real destination, relays inbound data groups onto that
// socket in order, and pumps the destination's return bytes back to
// the ingress along the Open's mirrored return route.
type Egress struct {
	relay
}

// NewEgress binds an egress relay to a livenet host endpoint.
func NewEgress(host *livenet.Host, endpoint uint8, cfg Config) *Egress {
	e := &Egress{}
	e.sendStage, e.recvStage = "stream-return", "stream-egress"
	e.bindRT(host, endpoint, cfg)
	e.open = e.onOpen
	return e
}

// onOpen serves one Open transaction: dial the destination and answer
// with the SOCKS reply code the ingress will forward verbatim. The
// Open's return route — the VIPER trailer mirrored hop by hop on the
// way here, tokens included (ReverseOK) — becomes the stream's
// egress→ingress source route. RTHandler lends ret's slice until it
// returns, so the stream keeps a clone of it, one allocation per
// stream: the fields alias the delivery's immutable Route bytes, and
// the stream only reads them.
func (e *Egress) onOpen(m Msg, from uint64, ret []viper.Segment) []byte {
	key := streamKey{peer: from, id: m.Stream}
	if e.lookup(from, m.Stream) != nil {
		// Duplicate Open past the RT response cache (very late retry):
		// the stream exists, the original success stands.
		return EncodeReply(ReplySuccess)
	}
	if len(ret) == 0 {
		return EncodeReply(ReplyGeneralFailure)
	}
	conn, err := net.DialTimeout("tcp", m.Addr, dialTimeout)
	if err != nil {
		e.dialErrors.Add(1)
		return EncodeReply(DialErrorReply(err))
	}
	st := e.newStream(key, conn, slices.Clone(ret))
	if !e.register(st, true) {
		conn.Close()
		return EncodeReply(ReplyGeneralFailure)
	}
	e.wg.Add(1)
	go e.pump(st)
	return EncodeReply(ReplySuccess)
}

// Close tears all streams down and closes the RT endpoint.
func (e *Egress) Close() { e.closeRelay() }
