package gateway

import (
	"net"
	"sync/atomic"
	"time"

	"repro/internal/livenet"
	"repro/internal/pool"
)

// Ingress is the client-facing gateway: a SOCKS5 server whose accepted
// connections become streams relayed over VMTP packet groups to the
// egress entity named in Config.Peer, along Config.Route.
type Ingress struct {
	relay
	ln       net.Listener
	nextID   atomic.Uint32
	accepted chan struct{} // closed when the accept loop exits
}

// NewIngress binds an ingress relay to a livenet host endpoint and
// starts serving SOCKS5 on ln. The listener is owned by the Ingress
// from here on.
func NewIngress(ln net.Listener, host *livenet.Host, endpoint uint8, cfg Config) *Ingress {
	in := &Ingress{ln: ln, accepted: make(chan struct{})}
	in.sendStage, in.recvStage = "stream-ingress", "stream-client-write"
	in.bindRT(host, endpoint, cfg)
	go in.serve()
	return in
}

// Addr is the SOCKS5 listen address.
func (in *Ingress) Addr() string { return in.ln.Addr().String() }

func (in *Ingress) serve() {
	defer close(in.accepted)
	for {
		c, err := in.ln.Accept()
		if err != nil {
			return // listener closed
		}
		in.wg.Add(1)
		go in.handleConn(c)
	}
}

// handleConn negotiates SOCKS5, opens the stream at the egress (the
// Open transaction carries the destination address and its reply IS
// the SOCKS reply code), and starts the uplink pump.
func (in *Ingress) handleConn(c net.Conn) {
	defer in.wg.Done()
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	target, err := ReadRequest(c)
	if err != nil {
		in.socksErrors.Add(1)
		c.Close()
		return
	}
	c.SetDeadline(time.Time{})

	id := in.nextID.Add(1)
	st := in.newStream(streamKey{peer: in.cfg.Peer, id: id}, c, in.cfg.Route)
	if !in.register(st, false) {
		WriteReply(c, ReplyGeneralFailure)
		c.Close()
		return
	}
	open := Msg{Op: OpOpen, Stream: id, Addr: target}
	req := open.appendEncoded(pool.Get(open.encodedLen())) // Call borrows it until it returns
	rep, err := in.rt.Call(in.cfg.Peer, in.cfg.Route, req)
	pool.Put(req)
	code := ReplyGeneralFailure
	if err == nil {
		code = DecodeReply(rep)
	}
	if code != ReplySuccess {
		in.openFails.Add(1)
		WriteReply(c, code)
		in.reset(st, false, &SocksError{Code: code, Why: "open failed"})
		return
	}
	if werr := WriteReply(c, ReplySuccess); werr != nil {
		// Client vanished between request and reply: the egress has a
		// live dial — tear it down explicitly.
		in.reset(st, true, werr)
		return
	}
	in.wg.Add(1)
	go in.pump(st)
}

// Close stops accepting, tears all streams down, and closes the RT
// endpoint.
func (in *Ingress) Close() {
	in.ln.Close()
	<-in.accepted
	in.closeRelay()
}
