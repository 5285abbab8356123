// Package gateway turns real TCP byte streams into Sirpent traffic: a
// SOCKS5 ingress host accepts ordinary client connections, assigns
// each a stream identifier, and segments its bytes into VMTP packet
// groups source-routed through the mesh; an egress host reassembles
// the groups in order, dials the real destination, and relays the
// return direction the same way. It is the subsystem where correctness
// means "the application's bytes arrive intact and in order", not "the
// trailer matches" (DESIGN.md §13).
//
// Transport contract. Each stream message (wire.go) rides as one VMTP
// transaction issued by vmtp.RT over a livenet host — so gateway hosts
// are ordinary token-charged endpoints and every stream byte is billed
// to the gateway's account and reconciles in the ledger like any other
// traffic. Data groups within a stream carry sequence numbers; the
// receiver admits them through a vmtp.Sequencer, writing to the local
// socket strictly in order no matter how transactions interleave.
//
// Backpressure. There is no unbounded buffering anywhere on the path:
// the receiving relay only acknowledges a data group after its bytes
// are written to the destination socket, and the sending relay holds
// at most window unacknowledged groups before its socket-reading pump
// stops reading. A slow destination therefore stalls the egress
// write, which stalls the ingress window, which stops the ingress
// read, which fills the kernel TCP buffer and backpressures the SOCKS
// client — end to end through VMTP's own rate machinery.
//
// Ownership rules. The relay owns its net.Conn and its vmtp.RT
// endpoint. Inbound transactions run on RT's handler workers, which may
// block on socket writes and sequencer turns, and teardown always
// aborts the sequencer before closing the RT so no worker is left
// waiting. Msg.Data decoded by DecodeMsg aliases the request bytes RT
// lends the handler and is written out before the handler returns,
// never retained. The pump reads into a pooled buffer; each outbound
// data group is issued with RT.Start from a pooled buffer that VMTP
// borrows until the group's completion, which frees the window slot.
// No transaction takes a goroutine of its own: after the FIN, the pump
// itself quiesces the window.
package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/livenet"
	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viper"
	"repro/internal/vmtp"
)

// Config tunes a gateway relay (ingress or egress side).
type Config struct {
	// Entity is this relay's VMTP entity identifier.
	Entity uint64
	// Peer is the egress entity an ingress opens streams toward
	// (unused on the egress side, which learns peers from Open
	// messages).
	Peer uint64
	// Route is the source route from the ingress host to the egress
	// host. Its tokens must be ReverseOK so the mirrored trailer
	// yields a token-valid return route for egress→ingress traffic.
	Route []viper.Segment
	// RT tunes the underlying real-time VMTP endpoint. A zero
	// CallTimeout means the relay's 60 s.
	RT vmtp.RTConfig
	// Telemetry, when set, receives per-stage stream spans for every
	// data group: the sender side records the group's full mesh round
	// trip ("stream-ingress" uplink, "stream-return" downlink), the
	// receiving side the one-way transit ("stream-transit") and its
	// destination-socket write ("stream-egress" at the egress,
	// "stream-client-write" at the ingress) — all under one trace ID
	// carried in the message's FlagTraced context. nil disables stream
	// tracing entirely (no wire bytes, no clock reads).
	Telemetry *trace.Spans
	// Node names this relay's process in recorded spans.
	Node string
}

const (
	// window is the per-stream, per-direction cap on unacknowledged
	// data groups in flight.
	window = 4
	// groupBytes is how many stream bytes ride in one VMTP packet
	// group: one full group less the stream header. The trace context
	// is reserved unconditionally so a traced group never overflows
	// the group capacity an untraced full group fits exactly (17 bytes
	// in ~32 KiB).
	groupBytes = vmtp.MaxGroupPackets*vmtp.MaxPacketData - msgHeaderLen - trace.ContextWireLen
	// handshakeTimeout bounds a client's SOCKS negotiation.
	handshakeTimeout = 10 * time.Second
	// dialTimeout bounds the egress destination dial.
	dialTimeout = 10 * time.Second
	// maxStreams bounds concurrent streams on the egress.
	maxStreams = 1024
	// callTimeout bounds one relay transaction, including the time the
	// far relay blocks on its socket for backpressure.
	callTimeout = 60 * time.Second
)

// BurstPackets is the most packets one stream direction emits back to
// back: window groups of up to vmtp.MaxGroupPackets packets, sent
// unpaced. A link carrying relays needs this many slots; a shallower one
// overflows on a full window, and the overflow comes back as
// retransmissions rather than queueing delay. The window is per stream,
// so this covers one stream: N bulk streams crossing one link can burst
// N times as much, and with this depth they overflow it.
const BurstPackets = window * vmtp.MaxGroupPackets

// Stats is a point-in-time snapshot of a relay's counters.
type Stats struct {
	Streams       uint64 // streams ever opened
	ActiveStreams int
	CleanCloses   uint64 // both FINs delivered and applied
	Resets        uint64 // hard teardowns (errors, aborts, peer Close)
	SocksErrors   uint64 // ingress: failed SOCKS negotiations
	OpenFailures  uint64 // ingress: Open calls answered with failure
	DialErrors    uint64 // egress: destination dials that failed
	BytesIn       uint64 // bytes read from local sockets into the mesh
	BytesOut      uint64 // bytes from the mesh written to local sockets
	GroupsSent    uint64 // data groups sent (successful transactions)
	// Group round-trip latency over the mesh, microseconds.
	GroupRTTp50us  int64
	GroupRTTp99us  int64
	GroupRTTMeanus float64
	VMTP           vmtp.Stats
}

// ErrGatewayClosed reports a relay shut down mid-operation.
var ErrGatewayClosed = errors.New("gateway: closed")

var errPeerClosed = errors.New("gateway: peer closed stream")

type streamKey struct {
	peer uint64 // remote relay entity
	id   uint32
}

// stream is one relayed TCP connection (one side of it).
type stream struct {
	key     streamKey
	conn    net.Conn
	route   []viper.Segment // where outbound calls for this stream go
	inSeq   vmtp.Sequencer  // orders inbound data groups
	outSeq  uint32          // next outbound group sequence (pump goroutine only)
	slots   chan *groupSlot // free outbound window slots
	nSlots  int             // slots made so far, at most window (pump goroutine only)
	done    chan struct{}
	once    sync.Once
	finSent atomic.Bool // our FIN delivered and acknowledged
	finRecv atomic.Bool // peer's FIN applied to our socket
}

// relay is the shared machine under Ingress and Egress.
type relay struct {
	rt  *vmtp.RT
	cfg Config

	mu      sync.Mutex
	streams map[streamKey]*stream
	closed  bool
	wg      sync.WaitGroup

	latMu sync.Mutex
	lat   stats.Log2Histogram

	// Stream-stage tracing (nil cfg.Telemetry leaves all of it idle).
	sendStage string // span stage for groups this relay sends
	recvStage string // span stage for groups this relay applies
	ctxBase   uint64 // OR-ed into stream trace IDs
	traceSeq  atomic.Uint64

	nStreams    atomic.Uint64
	cleanCloses atomic.Uint64
	resets      atomic.Uint64
	socksErrors atomic.Uint64
	openFails   atomic.Uint64
	dialErrors  atomic.Uint64
	bytesIn     atomic.Uint64
	bytesOut    atomic.Uint64
	groupsSent  atomic.Uint64

	// open serves OpOpen; only the egress installs it.
	open func(m Msg, from uint64, ret []viper.Segment) []byte
}

// bindRT creates the relay's RT endpoint on a livenet host endpoint:
// the host's SendFrom is the carrier — the origin trailer names this
// endpoint, so the peer's return route lands back here rather than on
// the host's default handler — and DeliverRoute runs each delivery's
// VMTP step on the host's goroutine, done with the pooled bytes before
// the host recycles them, keeping the return route as the delivery's
// Route bytes.
func (r *relay) bindRT(host *livenet.Host, endpoint uint8, cfg Config) {
	r.init(cfg, vmtp.CarrierFunc(func(route []viper.Segment, data []byte) error {
		return host.SendFrom(endpoint, route, data)
	}))
	host.Handle(endpoint, func(d livenet.Delivery) {
		r.rt.DeliverRoute(d.Data, d.ReturnRoute)
	})
}

// init readies the relay over an RT endpoint on carrier.
func (r *relay) init(cfg Config, carrier vmtp.Carrier) {
	r.cfg = cfg
	r.streams = make(map[streamKey]*stream)
	// Stream trace IDs live in their own namespace (top byte 0x67,
	// "g") so they can share a Spans store with packet-level traces
	// without colliding.
	r.ctxBase = uint64(0x67)<<56 | (cfg.Entity&0xFF)<<48
	rt := cfg.RT
	if rt.CallTimeout == 0 {
		rt.CallTimeout = callTimeout
	}
	r.rt = vmtp.NewRT(cfg.Entity, carrier, rt)
	r.rt.SetHandler(r.onMsg)
}

func (r *relay) newStream(key streamKey, conn net.Conn, route []viper.Segment) *stream {
	return &stream{
		key:   key,
		conn:  conn,
		route: route,
		slots: make(chan *groupSlot, window),
		done:  make(chan struct{}),
	}
}

// register adds a stream; it fails once the relay is closed or (when
// bound is true) the stream limit is hit.
func (r *relay) register(st *stream, bound bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || (bound && len(r.streams) >= maxStreams) {
		return false
	}
	if _, dup := r.streams[st.key]; dup {
		return false
	}
	r.streams[st.key] = st
	r.nStreams.Add(1)
	return true
}

func (r *relay) lookup(peer uint64, id uint32) *stream {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.streams[streamKey{peer: peer, id: id}]
}

// reset hard-tears a stream down: socket closed, sequencer aborted,
// in-flight senders released. When notify is set the peer is told with
// a best-effort Close message so its side tears down too (and stops
// being billed for retransmissions toward a dead socket).
func (r *relay) reset(st *stream, notify bool, err error) {
	st.once.Do(func() {
		close(st.done)
		st.conn.Close()
		st.inSeq.Abort(err)
		r.mu.Lock()
		delete(r.streams, st.key)
		closed := r.closed
		r.mu.Unlock()
		r.resets.Add(1)
		if notify && !closed {
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				m := Msg{Op: OpClose, Stream: st.key.id}
				r.rt.Call(st.key.peer, st.route, m.Encode())
			}()
		}
	})
}

// maybeFinish completes a clean bidirectional shutdown once both FINs
// have been delivered and applied.
func (r *relay) maybeFinish(st *stream) {
	if !st.finSent.Load() || !st.finRecv.Load() {
		return
	}
	st.once.Do(func() {
		close(st.done)
		st.conn.Close()
		r.mu.Lock()
		delete(r.streams, st.key)
		r.mu.Unlock()
		r.cleanCloses.Add(1)
	})
}

// pump is the outbound loop: it reads the local socket into a pooled
// buffer and ships each chunk as one in-order data group, holding at
// most window groups in flight. EOF becomes an empty FIN group, after
// which the pump quiesces the window; any other read error resets the
// stream on both sides.
func (r *relay) pump(st *stream) {
	defer r.wg.Done()
	buf := pool.Get(groupBytes)[:groupBytes]
	defer pool.Put(buf)
	for {
		n, err := st.conn.Read(buf)
		if n > 0 {
			if !r.sendGroup(st, buf[:n], false) {
				return
			}
		}
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // torn down elsewhere
			}
			if isEOF(err) {
				if r.sendGroup(st, nil, true) {
					r.quiesce(st)
				}
			} else {
				r.reset(st, true, err)
			}
			return
		}
	}
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF)
}

// A groupSlot is one of a stream's window outbound slots: the data
// group it carries and the completion that frees it. A stream makes its
// slots as its window first fills and reuses them after, so a group in
// flight costs neither a goroutine nor an allocation.
type groupSlot struct {
	r     *relay
	st    *stream
	msg   []byte // the encoded group: a pool buffer VMTP borrows until done
	size  uint64
	ctx   trace.Context
	start time.Time
	done  func([]byte, error) // complete, bound once
}

// slot takes a free window slot, making one while fewer than window
// exist, and waits for one otherwise. It returns nil once the stream is
// dead. Pump goroutine only.
func (st *stream) slot(r *relay) *groupSlot {
	if len(st.slots) == 0 && st.nSlots < cap(st.slots) {
		st.nSlots++
		s := &groupSlot{r: r, st: st}
		s.done = s.complete
		return s
	}
	select {
	case s := <-st.slots:
		return s
	case <-st.done:
		return nil
	}
}

// sendGroup acquires a window slot and issues the data group's VMTP
// transaction; the slot is held until the receiver has written the
// bytes and replied. Returns false once the stream is dead. data is
// encoded before sendGroup returns, so the caller may reuse it.
func (r *relay) sendGroup(st *stream, data []byte, fin bool) bool {
	seq := st.outSeq
	st.outSeq++
	s := st.slot(r)
	if s == nil {
		return false
	}
	m := Msg{Op: OpData, Fin: fin, Stream: st.key.id, Seq: seq, Data: data}
	if r.cfg.Telemetry != nil {
		m.Ctx = trace.Context{ID: r.ctxBase | r.traceSeq.Add(1), Origin: time.Now().UnixNano(), Budget: trace.DefaultHopBudget}
	}
	s.msg = m.appendEncoded(pool.Get(m.encodedLen()))
	s.size, s.ctx, s.start = uint64(len(data)), m.Ctx, time.Now()
	r.wg.Add(1) // until the completion is done with the stream
	if err := r.rt.Start(st.key.peer, st.route, s.msg, s.done); err != nil {
		s.complete(nil, err)
	}
	return true
}

// complete is a data group's completion, run on the goroutine whose RT
// step finished the call. It counts the group, records its span and
// recycles its buffer before it frees the slot, so a pump that holds
// every slot after the FIN knows every group is counted.
func (s *groupSlot) complete(rep []byte, err error) {
	r, st := s.r, s.st
	pool.Put(s.msg)
	s.msg = nil
	if err == nil && DecodeReply(rep) != ReplySuccess {
		err = fmt.Errorf("gateway: peer rejected data group (code %d)", DecodeReply(rep))
	}
	if err != nil {
		r.reset(st, true, err)
		st.slots <- s // never blocks: the channel holds every slot
		r.wg.Done()
		return
	}
	r.latMu.Lock()
	r.lat.Add(time.Since(s.start).Microseconds())
	r.latMu.Unlock()
	r.groupsSent.Add(1)
	r.bytesIn.Add(s.size)
	if s.ctx.Valid() {
		// The group's whole mesh round trip — segmentation, every
		// tunnel crossing, relay forwarding, the far socket write,
		// and the reply — as the sending side observed it.
		r.cfg.Telemetry.Record(trace.Span{
			Trace: s.ctx.ID, Stage: r.sendStage, Node: r.cfg.Node,
			Start: s.ctx.Origin, End: time.Now().UnixNano(),
		})
	}
	st.slots <- s
	r.wg.Done()
}

// quiesce runs on the pump once it has issued our FIN, the stream's
// last group. It takes back every window slot before declaring our half
// done: holding them all means every group's completion ran, the FIN's
// included — i.e. finished accounting — so stats taken after a clean
// close reconcile exactly (the cluster telemetry verifier leans on
// this). A group that failed reset the stream before freeing its slot,
// so a stream found reset once the slots are back did not close
// cleanly. The pump sends nothing after the FIN, so nSlots is final and
// the drained slots are not needed again.
func (r *relay) quiesce(st *stream) {
	for i := 0; i < st.nSlots; i++ {
		select {
		case <-st.slots:
		case <-st.done:
			return
		}
	}
	select {
	case <-st.done:
		return
	default:
	}
	st.finSent.Store(true)
	r.maybeFinish(st)
}

// onMsg is the RT handler, run on an RT handler worker: no goroutine is
// made per transaction. It is free to block on the sequencer and the
// socket write — that blocking IS the backpressure path (the sender's
// window slot stays held until we reply), and RT gives requests that
// arrive meanwhile workers of their own.
func (r *relay) onMsg(from uint64, data []byte, ret []viper.Segment) []byte {
	var m Msg
	if err := DecodeMsg(data, &m); err != nil {
		return EncodeReply(ReplyGeneralFailure)
	}
	switch m.Op {
	case OpOpen:
		if r.open == nil {
			return EncodeReply(ReplyCmdNotSupported)
		}
		return r.open(m, from, ret)
	case OpData:
		return r.onData(r.lookup(from, m.Stream), &m)
	case OpClose:
		if st := r.lookup(from, m.Stream); st != nil {
			r.reset(st, false, errPeerClosed)
		}
		return EncodeReply(ReplySuccess)
	}
	return EncodeReply(ReplyGeneralFailure)
}

func (r *relay) onData(st *stream, m *Msg) []byte {
	if st == nil {
		return EncodeReply(ReplyGeneralFailure)
	}
	var arrived int64
	if r.cfg.Telemetry != nil && m.Ctx.Valid() {
		arrived = time.Now().UnixNano()
	}
	if err := st.inSeq.Admit(m.Seq); err != nil {
		if errors.Is(err, vmtp.ErrReplayed) {
			// The peer retried a group we already applied (its reply
			// was lost): idempotent success, bytes not rewritten.
			return EncodeReply(ReplySuccess)
		}
		return EncodeReply(ReplyGeneralFailure)
	}
	var werr error
	if len(m.Data) > 0 {
		var n int
		n, werr = st.conn.Write(m.Data)
		r.bytesOut.Add(uint64(n))
	}
	finish := false
	if werr == nil && m.Fin {
		st.finRecv.Store(true)
		closeWrite(st.conn)
		finish = true
	}
	st.inSeq.Done()
	if werr != nil {
		r.reset(st, true, werr)
		return EncodeReply(ReplyGeneralFailure)
	}
	if finish {
		r.maybeFinish(st)
	}
	if arrived != 0 {
		// Recorded only on first apply (retried groups return through the
		// ErrReplayed path above), so receive-side span counts match the
		// sender's successful-group count on a clean run. The transit
		// span leans on the cluster's shared wall clock, like the
		// tunnels' wire spans.
		done := time.Now().UnixNano()
		r.cfg.Telemetry.Record(trace.Span{
			Trace: m.Ctx.ID, Stage: "stream-transit", Node: r.cfg.Node,
			Start: m.Ctx.Origin, End: arrived,
		})
		r.cfg.Telemetry.Record(trace.Span{
			Trace: m.Ctx.ID, Stage: r.recvStage, Node: r.cfg.Node,
			Start: arrived, End: done,
		})
	}
	return EncodeReply(ReplySuccess)
}

// closeWrite half-closes the write side if the transport supports it
// (TCP does); receivers treat it as the stream's FIN.
func closeWrite(c net.Conn) {
	if cw, ok := c.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
}

// closeRelay tears every stream down, closes the RT endpoint, and
// waits for all relay goroutines.
func (r *relay) closeRelay() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	sts := make([]*stream, 0, len(r.streams))
	for _, st := range r.streams {
		sts = append(sts, st)
	}
	r.mu.Unlock()
	for _, st := range sts {
		r.reset(st, false, ErrGatewayClosed)
	}
	r.rt.Close()
	r.wg.Wait()
}

// Stats snapshots the relay counters.
func (r *relay) Stats() Stats {
	r.mu.Lock()
	active := len(r.streams)
	r.mu.Unlock()
	r.latMu.Lock()
	p50 := r.lat.Percentile(50)
	p99 := r.lat.Percentile(99)
	mean := r.lat.Mean()
	r.latMu.Unlock()
	return Stats{
		Streams:        r.nStreams.Load(),
		ActiveStreams:  active,
		CleanCloses:    r.cleanCloses.Load(),
		Resets:         r.resets.Load(),
		SocksErrors:    r.socksErrors.Load(),
		OpenFailures:   r.openFails.Load(),
		DialErrors:     r.dialErrors.Load(),
		BytesIn:        r.bytesIn.Load(),
		BytesOut:       r.bytesOut.Load(),
		GroupsSent:     r.groupsSent.Load(),
		GroupRTTp50us:  p50,
		GroupRTTp99us:  p99,
		GroupRTTMeanus: mean,
		VMTP:           r.rt.Stats(),
	}
}

// PeerRTTs reports the relay's smoothed VMTP round-trip estimate toward
// each peer entity it has called, in nanoseconds — the per-peer latency
// the daemon folds into its telemetry report.
func (r *relay) PeerRTTs() map[uint64]int64 {
	rtts := r.rt.RTTs()
	out := make(map[uint64]int64, len(rtts))
	for k, v := range rtts {
		out[k] = v.Nanoseconds()
	}
	return out
}
