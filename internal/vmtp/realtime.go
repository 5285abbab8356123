package vmtp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/pool"
	"repro/internal/viper"
)

// This file is the wall-clock realization of the VMTP transaction
// machinery: the same wire format, packet groups, selective
// retransmission and duplicate suppression as the simulation Endpoint,
// but driven by real timers and safe for concurrent callers, so real
// application bytes (internal/gateway) can ride VMTP packet groups over
// the livenet substrate. An RT endpoint is bound to a Carrier — any
// "send these encoded bytes along this source route" primitive, in
// practice a livenet host — and fed arriving packets through Deliver.
//
// Differences from the simulation Endpoint, all deliberate:
//
//   - Call blocks. The caller's goroutine is the natural unit of
//     flow control for stream relaying: a transaction that cannot
//     complete (slow receiver, congested mesh) holds its caller, and
//     the backpressure propagates to whatever socket feeds it.
//   - Full-group acks double as "request received, response pending".
//     Once the receiver acks the complete delivery mask, the client
//     stops retransmitting data and only probes (FlagProbe) while the
//     server-side handler runs — a handler deliberately blocking for
//     backpressure must not trigger request retransmission storms.
//   - One route per call. Alternate-route failover stays with the
//     simulation endpoint and the directory; RT callers re-query on
//     error instead.
//
// Deliver never blocks: packets are decoded (their data copied into a
// pooled buffer, recycled once the packet is handled) and queued to an
// internal receive goroutine, and a full queue drops the packet (counted
// in Stats.QueueDrops). VMTP's retransmission recovers the loss, exactly
// as it would recover wire loss — which keeps the delivering goroutine
// (a livenet host) deadlock-free no matter how congested the endpoint.

// Carrier is the packet path under a real-time endpoint: Send
// transmits one encoded VMTP packet along a source route. Send must not
// keep pkt after it returns: the endpoint encodes a group's next packet
// into the same buffer. livenet's Host.Send, which copies the bytes into
// its frame, satisfies it via CarrierFunc.
type Carrier interface {
	Send(route []viper.Segment, pkt []byte) error
}

// CarrierFunc adapts a function to the Carrier interface.
type CarrierFunc func(route []viper.Segment, pkt []byte) error

// Send implements Carrier.
func (f CarrierFunc) Send(route []viper.Segment, pkt []byte) error { return f(route, pkt) }

// FlagProbe marks a KindRequest packet as a status probe: it carries
// no data to place, and only elicits either the cached response (if
// the transaction completed) or a full-mask ack (if the request was
// received and the handler is still running). Clients send probes
// instead of data retransmissions once the full group is acked.
const FlagProbe uint8 = 0x01

// RTConfig tunes a real-time endpoint. The zero value gets sane
// defaults for a LAN-scale mesh.
type RTConfig struct {
	// MaxPacketData bounds the data per packet; default MaxPacketData.
	MaxPacketData int
	// PacingGap is VMTP's rate-based flow control: the inter-packet
	// gap within a packet group (§4.3). Zero sends back to back.
	PacingGap time.Duration
	// BaseTimeout seeds the retransmission timer before an RTT
	// estimate exists. Default 50ms.
	BaseTimeout time.Duration
	// MaxTimeout caps the exponential retransmission backoff.
	// Default 2s.
	MaxTimeout time.Duration
	// MaxRetries bounds data retransmissions before the call fails.
	// Probes after a full-group ack do not count. Default 8.
	MaxRetries int
	// CallTimeout bounds one whole transaction, including the time a
	// remote handler may block for backpressure. Default 2m.
	CallTimeout time.Duration
	// GapAckDelay is how long a receiver waits on an incomplete quiet
	// group before sending a selective ack of what it has (§4.3).
	// Default 2ms.
	GapAckDelay time.Duration
	// GroupTimeout discards an incomplete request group if the missing
	// packets never arrive. Default 10s.
	GroupTimeout time.Duration
	// ResponseCacheTTL is the duplicate-suppression window. Default 10s.
	ResponseCacheTTL time.Duration
	// MPL is the maximum packet lifetime (§4.2). Default 30s.
	MPL time.Duration
	// FutureSlack tolerates receiver clocks behind senders. Default 5s.
	FutureSlack time.Duration
	// QueueDepth is the receive queue length between Deliver and the
	// processing goroutine. Default 512.
	QueueDepth int
}

func (c RTConfig) withDefaults() RTConfig {
	if c.MaxPacketData == 0 {
		c.MaxPacketData = MaxPacketData
	}
	if c.BaseTimeout == 0 {
		c.BaseTimeout = 50 * time.Millisecond
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 2 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Minute
	}
	if c.GapAckDelay == 0 {
		c.GapAckDelay = 2 * time.Millisecond
	}
	if c.GroupTimeout == 0 {
		c.GroupTimeout = 10 * time.Second
	}
	if c.ResponseCacheTTL == 0 {
		c.ResponseCacheTTL = 10 * time.Second
	}
	if c.MPL == 0 {
		c.MPL = 30 * time.Second
	}
	if c.FutureSlack == 0 {
		c.FutureSlack = 5 * time.Second
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 512
	}
	return c
}

// RTHandler serves requests on a real-time endpoint. It runs on its
// own goroutine per transaction and MAY block (that is the
// backpressure path); ret is the trailer-built return route of the
// request's freshest packet, deep-copied and safe to retain.
type RTHandler func(from uint64, data []byte, ret []viper.Segment) []byte

// RT errors.
var (
	ErrCallFailed  = errors.New("vmtp: transaction failed (retries exhausted)")
	ErrCallTimeout = errors.New("vmtp: transaction timed out")
	ErrClosed      = errors.New("vmtp: endpoint closed")
)

// RT is a real-time VMTP entity: the transactional packet-group
// transport of §4 driven by wall-clock timers over an arbitrary
// Carrier. All methods are safe for concurrent use.
type RT struct {
	id  uint64
	car Carrier
	cfg RTConfig

	mu      sync.Mutex
	closed  bool
	nextTxn uint32
	calls   map[uint32]*rtCall
	rxReqs  map[groupKey]*rtRxGroup
	cache   map[groupKey]*rtRespEntry
	srtt    map[uint64]time.Duration
	rttvar  map[uint64]time.Duration
	handler RTHandler
	stats   Stats

	rx   chan rtDelivery
	done chan struct{}
	wg   sync.WaitGroup
}

// rtDelivery is one decoded arrival queued for the receive goroutine,
// carried by value so queuing it allocates nothing.
type rtDelivery struct {
	pkt Packet
	ret []viper.Segment
}

type rtCall struct {
	txn       uint32
	server    uint64
	route     []viper.Segment
	pkts      []Packet
	acked     uint32
	full      uint32
	delivered bool
	retries   int
	timer     *time.Timer
	timeout   time.Duration
	resp      *rtRxGroup
	result    chan rtResult
	sent      time.Time
	clean     bool
}

type rtResult struct {
	data []byte
	err  error
}

type rtRxGroup struct {
	nPkts    uint8
	totalLen int
	mask     uint32
	data     []byte
	ret      []viper.Segment
	served   bool
	lastRx   time.Time
	ackArmed bool
	expire   *time.Timer // GroupTimeout; stopped once the group completes
}

func (g *rtRxGroup) complete() bool { return g.mask == fullMask(g.nPkts) }

type rtRespEntry struct {
	pkts []Packet
	ret  []viper.Segment
}

// maxGroupLen bounds the reassembly buffer a hostile or corrupted
// header can make a receiver allocate.
const maxGroupLen = MaxGroupPackets * 64 * 1024

// NewRT creates a real-time VMTP entity with identifier id over the
// carrier. The caller feeds arriving packets through Deliver and must
// Close the endpoint when done.
func NewRT(id uint64, car Carrier, cfg RTConfig) *RT {
	cfg = cfg.withDefaults()
	rt := &RT{
		id:     id,
		car:    car,
		cfg:    cfg,
		calls:  make(map[uint32]*rtCall),
		rxReqs: make(map[groupKey]*rtRxGroup),
		cache:  make(map[groupKey]*rtRespEntry),
		srtt:   make(map[uint64]time.Duration),
		rttvar: make(map[uint64]time.Duration),
		rx:     make(chan rtDelivery, cfg.QueueDepth),
		done:   make(chan struct{}),
	}
	rt.wg.Add(1)
	go rt.rxLoop()
	return rt
}

// ID returns the entity identifier.
func (rt *RT) ID() uint64 { return rt.id }

// SetHandler installs the request handler (server role). Each
// transaction's handler invocation runs on its own goroutine.
func (rt *RT) SetHandler(h RTHandler) {
	rt.mu.Lock()
	rt.handler = h
	rt.mu.Unlock()
}

// Stats returns a snapshot of the endpoint's counters.
func (rt *RT) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
}

// RTT returns the smoothed round-trip estimate toward a server entity,
// or 0 if none yet.
func (rt *RT) RTT(server uint64) time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.srtt[server]
}

// RTTs returns a copy of every smoothed round-trip estimate, keyed by
// server entity — the per-peer latency view telemetry reports ship to
// the directory.
func (rt *RT) RTTs() map[uint64]time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[uint64]time.Duration, len(rt.srtt))
	for k, v := range rt.srtt {
		out[k] = v
	}
	return out
}

// Close shuts the endpoint down: outstanding calls fail with
// ErrClosed, timers are cancelled, and in-flight handler goroutines
// are waited for.
func (rt *RT) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	close(rt.done)
	for _, c := range rt.calls {
		c.timer.Stop()
		c.finish(nil, ErrClosed)
	}
	rt.calls = make(map[uint32]*rtCall)
	rt.mu.Unlock()
	rt.wg.Wait()
}

// finish delivers the call's outcome exactly once (the result channel
// has capacity 1 and a single consumer).
func (c *rtCall) finish(data []byte, err error) {
	select {
	case c.result <- rtResult{data: data, err: err}:
	default:
	}
}

// Deliver injects one arriving packet. data may alias a buffer the
// caller recycles after return (it is decoded, and thereby copied,
// before queuing); ret must be safe to retain (livenet's
// Delivery.ReturnRoute already is). Deliver never blocks: if the
// receive queue is full the packet is dropped and retransmission
// recovers it.
func (rt *RT) Deliver(data []byte, ret []viper.Segment) {
	var p Packet
	if err := p.decodeInto(data); err != nil {
		rt.mu.Lock()
		rt.stats.ChecksumDrops++
		rt.mu.Unlock()
		return
	}
	if p.Timestamp != clock.InvalidTimestamp {
		age := clock.Age(nowTimestamp(), p.Timestamp)
		if age > rt.cfg.MPL.Milliseconds() || age < -rt.cfg.FutureSlack.Milliseconds() {
			rt.mu.Lock()
			rt.stats.StaleDrops++
			rt.mu.Unlock()
			return
		}
	}
	if len(p.Data) > 0 {
		p.Data = append(pool.Get(len(p.Data)), p.Data...)
	}
	select {
	case rt.rx <- rtDelivery{pkt: p, ret: ret}:
	default:
		recycle(&p)
		rt.mu.Lock()
		rt.stats.QueueDrops++
		rt.mu.Unlock()
	}
}

// recycle returns a delivered packet's data buffer to the pool. The
// handlers copy what they keep (placeRT), so nothing aliases it after.
func recycle(p *Packet) {
	if p.Data != nil {
		pool.Put(p.Data)
	}
}

func nowTimestamp() clock.Timestamp {
	return clock.Timestamp(uint32(time.Now().UnixMilli()))
}

func (rt *RT) rxLoop() {
	defer rt.wg.Done()
	for {
		select {
		case d := <-rt.rx:
			rt.handle(&d.pkt, d.ret)
			recycle(&d.pkt)
		case <-rt.done:
			return
		}
	}
}

// Call runs one transaction to a server entity along a source route,
// blocking until the response arrives or the call fails. data larger
// than one packet is segmented into a paced packet group (§4.3).
func (rt *RT) Call(server uint64, route []viper.Segment, data []byte) ([]byte, error) {
	chunks, err := Segment(data, rt.cfg.MaxPacketData)
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, ErrClosed
	}
	rt.nextTxn++
	c := &rtCall{
		txn:     rt.nextTxn,
		server:  server,
		route:   route,
		pkts:    groupPackets(chunks, Header{Client: rt.id, Server: server, Txn: rt.nextTxn, Kind: KindRequest}, len(data)),
		full:    fullMask(uint8(len(chunks))),
		result:  make(chan rtResult, 1),
		timeout: rt.timeoutLocked(server),
		sent:    time.Now(),
		clean:   true,
	}
	rt.calls[c.txn] = c
	rt.stats.CallsStarted++
	c.timer = time.AfterFunc(c.timeout, func() { rt.onTimer(c.txn) })
	rt.mu.Unlock()

	rt.sendGroup(c.route, c.pkts, ^uint32(0), 0)

	deadline := time.NewTimer(rt.cfg.CallTimeout)
	defer deadline.Stop()
	select {
	case res := <-c.result:
		return res.data, res.err
	case <-deadline.C:
		rt.abortCall(c.txn)
		return nil, fmt.Errorf("%w (txn %d to %#x)", ErrCallTimeout, c.txn, server)
	case <-rt.done:
		return nil, ErrClosed
	}
}

// groupPackets lays a message's chunks out as one packet group in a
// single slice: every packet carries h, plus its index, the group size
// and the message length.
func groupPackets(chunks [][]byte, h Header, totalLen int) []Packet {
	pkts := make([]Packet, len(chunks))
	for i, ch := range chunks {
		pkts[i] = Packet{Header: h, Data: ch}
		pkts[i].PktIndex = uint8(i)
		pkts[i].NPkts = uint8(len(chunks))
		pkts[i].TotalLen = uint32(totalLen)
	}
	return pkts
}

// abortCall removes a call that its Call goroutine has given up on.
func (rt *RT) abortCall(txn uint32) {
	rt.mu.Lock()
	c, ok := rt.calls[txn]
	if ok {
		delete(rt.calls, txn)
		c.timer.Stop()
		rt.stats.CallsFailed++
	}
	rt.mu.Unlock()
}

// timeoutLocked computes the adaptive retransmission timer (Jacobson);
// rt.mu must be held.
func (rt *RT) timeoutLocked(server uint64) time.Duration {
	srtt, ok := rt.srtt[server]
	if !ok || srtt == 0 {
		return rt.cfg.BaseTimeout
	}
	to := srtt + 4*rt.rttvar[server]
	if min := rt.cfg.BaseTimeout / 4; to < min {
		to = min
	}
	if to > rt.cfg.MaxTimeout {
		to = rt.cfg.MaxTimeout
	}
	return to
}

// sendGroup transmits the packets selected by mask minus skip, paced
// by PacingGap, stamping each with the transmission-time timestamp.
// Each packet is copied before stamping so concurrent resends never race
// on a shared header.
func (rt *RT) sendGroup(route []viper.Segment, pkts []Packet, mask, skip uint32) {
	if len(route) == 0 {
		return
	}
	first := true
	var buf []byte // the carrier is done with each packet when Send returns
	for i := range pkts {
		bit := uint32(1) << uint(i)
		if mask&bit == 0 || skip&bit != 0 {
			continue
		}
		if !first && rt.cfg.PacingGap > 0 {
			time.Sleep(rt.cfg.PacingGap)
		}
		first = false
		q := pkts[i]
		q.Timestamp = nowTimestamp()
		buf = q.encodeInto(buf)
		rt.car.Send(route, buf)
	}
}

// onTimer is the client retransmission timer. Before the full-group
// ack it resends unacked data (bounded by MaxRetries with exponential
// backoff); after it, it only probes the server for the response.
func (rt *RT) onTimer(txn uint32) {
	rt.mu.Lock()
	c, ok := rt.calls[txn]
	if !ok || rt.closed {
		rt.mu.Unlock()
		return
	}
	if c.delivered {
		// Probe: the request is fully delivered, the handler is
		// (presumably) still running. Keep the cadence gentle and let
		// CallTimeout bound the wait.
		interval := c.timeout
		if interval < 50*time.Millisecond {
			interval = 50 * time.Millisecond
		}
		c.timer.Reset(interval)
		probe := c.pkts[0]
		probe.Flags |= FlagProbe
		probe.Data = nil
		probe.Timestamp = nowTimestamp()
		route := c.route
		rt.mu.Unlock()
		rt.car.Send(route, probe.Encode())
		return
	}
	c.retries++
	c.clean = false
	if c.retries > rt.cfg.MaxRetries {
		delete(rt.calls, txn)
		rt.stats.CallsFailed++
		rt.mu.Unlock()
		c.finish(nil, fmt.Errorf("%w (txn %d to %#x after %d retries)",
			ErrCallFailed, c.txn, c.server, rt.cfg.MaxRetries))
		return
	}
	rt.stats.Retransmissions++
	backoff := c.timeout << uint(c.retries)
	if backoff > rt.cfg.MaxTimeout {
		backoff = rt.cfg.MaxTimeout
	}
	c.timer.Reset(backoff)
	route, pkts, acked := c.route, c.pkts, c.acked
	rt.mu.Unlock()
	rt.sendGroup(route, pkts, ^uint32(0), acked)
}

// handle dispatches one received packet; runs on the rx goroutine.
func (rt *RT) handle(p *Packet, ret []viper.Segment) {
	switch p.Kind {
	case KindRequest:
		if p.Server != rt.id {
			rt.mu.Lock()
			rt.stats.Misdelivered++
			rt.mu.Unlock()
			return
		}
		rt.handleRequest(p, ret)
	case KindAck:
		if p.Client != rt.id {
			rt.mu.Lock()
			rt.stats.Misdelivered++
			rt.mu.Unlock()
			return
		}
		rt.handleAck(p)
	case KindResponse:
		if p.Client != rt.id {
			rt.mu.Lock()
			rt.stats.Misdelivered++
			rt.mu.Unlock()
			return
		}
		rt.handleResponse(p)
	}
}

// --- server side ---

func (rt *RT) handleRequest(p *Packet, ret []viper.Segment) {
	key := groupKey{client: p.Client, txn: p.Txn}
	rt.mu.Lock()
	if e, ok := rt.cache[key]; ok {
		// Duplicate of a completed transaction (or a probe for one):
		// replay the cached response (§4's at-most-once behavior).
		rt.stats.DupRequests++
		pkts := e.pkts
		rt.mu.Unlock()
		rt.sendGroup(ret, pkts, ^uint32(0), 0)
		return
	}
	if p.Flags&FlagProbe != 0 {
		// Probe for an in-progress transaction: re-ack full receipt so
		// the client keeps waiting. Probes for unknown transactions are
		// ignored; the client's CallTimeout is the backstop.
		g, ok := rt.rxReqs[key]
		armed := ok && g.complete()
		rt.mu.Unlock()
		if armed {
			rt.sendAck(key, g.nPkts, g.mask, ret)
		}
		return
	}
	g, ok := rt.rxReqs[key]
	if !ok {
		if p.NPkts == 0 || p.NPkts > MaxGroupPackets || int(p.TotalLen) > maxGroupLen {
			rt.stats.ChecksumDrops++
			rt.mu.Unlock()
			return
		}
		g = &rtRxGroup{
			nPkts:    p.NPkts,
			totalLen: int(p.TotalLen),
			data:     make([]byte, p.TotalLen),
		}
		rt.rxReqs[key] = g
		// The closure names its group by its timer, not by g: a stopped
		// timer can outlive Stop in the runtime's timer heap, and holding
		// g there would pin the reassembled bytes after the group is served.
		var expire *time.Timer
		expire = time.AfterFunc(rt.cfg.GroupTimeout, func() {
			rt.mu.Lock()
			if got, ok := rt.rxReqs[key]; ok && got.expire == expire && !got.complete() {
				delete(rt.rxReqs, key)
			}
			rt.mu.Unlock()
		})
		g.expire = expire
	}
	g.ret = ret
	g.lastRx = time.Now()
	placeRT(g, p)
	if !g.complete() {
		if !g.ackArmed {
			g.ackArmed = true
			rt.armGapAck(key, g)
		}
		rt.mu.Unlock()
		return
	}
	if g.served {
		// Full duplicate after dispatch: re-ack so the client stays in
		// the probing state instead of retransmitting data.
		nPkts, mask := g.nPkts, g.mask
		rt.mu.Unlock()
		rt.sendAck(key, nPkts, mask, ret)
		return
	}
	g.served = true
	// The timer only discards incomplete groups; left pending it would
	// pin the reassembled data for GroupTimeout after serve drops it.
	g.expire.Stop()
	handler := rt.handler
	rt.stats.AcksSent++
	nPkts, mask := g.nPkts, g.mask
	if !rt.closed {
		rt.wg.Add(1)
		// data and ret are snapshotted under mu: handleRequest keeps
		// refreshing g.ret as duplicate packets arrive, so the handler
		// must not read the live fields off-lock.
		go rt.serve(key, g, g.data, g.ret, handler)
	}
	rt.mu.Unlock()
	// The full-group ack doubles as "received, response pending": the
	// client stops retransmitting data the moment it arrives.
	rt.sendAck(key, nPkts, mask, ret)
}

func placeRT(g *rtRxGroup, p *Packet) {
	bit := uint32(1) << p.PktIndex
	if g.mask&bit != 0 || p.PktIndex >= g.nPkts {
		return
	}
	g.mask |= bit
	chunk := ChunkSize(g.totalLen, int(g.nPkts))
	off := int(p.PktIndex) * chunk
	if off <= len(g.data) {
		copy(g.data[off:], p.Data)
	}
}

// armGapAck schedules the selective-ack probe for an incomplete group:
// once the group has gone quiet for GapAckDelay, the receiver tells
// the client which packets arrived so only the missing are resent
// (§4.3 selective retransmission).
func (rt *RT) armGapAck(key groupKey, g *rtRxGroup) {
	time.AfterFunc(rt.cfg.GapAckDelay, func() {
		rt.mu.Lock()
		cur, ok := rt.rxReqs[key]
		if !ok || cur != g || g.complete() || rt.closed {
			if ok && cur == g {
				g.ackArmed = false
			}
			rt.mu.Unlock()
			return
		}
		if quiet := time.Since(g.lastRx); quiet < rt.cfg.GapAckDelay {
			rt.armGapAck(key, g)
			rt.mu.Unlock()
			return
		}
		rt.stats.AcksSent++
		nPkts, mask, ret := g.nPkts, g.mask, g.ret
		rt.armGapAck(key, g) // keep probing while incomplete
		rt.mu.Unlock()
		rt.sendAck(key, nPkts, mask, ret)
	})
}

func (rt *RT) sendAck(key groupKey, nPkts uint8, mask uint32, ret []viper.Segment) {
	ack := []Packet{{Header: Header{
		Client: key.client,
		Server: rt.id,
		Txn:    key.txn,
		Kind:   KindAck,
		NPkts:  nPkts,
		Mask:   mask,
	}}}
	rt.sendGroup(ret, ack, ^uint32(0), 0)
}

// serve runs the handler on its own goroutine and transmits (and
// caches) the response group.
func (rt *RT) serve(key groupKey, g *rtRxGroup, data []byte, ret0 []viper.Segment, handler RTHandler) {
	defer rt.wg.Done()
	var respData []byte
	if handler != nil {
		respData = handler(key.client, data, ret0)
	}
	chunks, err := Segment(respData, rt.cfg.MaxPacketData)
	if err != nil {
		return
	}
	pkts := groupPackets(chunks, Header{Client: key.client, Server: rt.id, Txn: key.txn, Kind: KindResponse}, len(respData))
	rt.mu.Lock()
	ret := g.ret // freshest return route seen for this transaction
	delete(rt.rxReqs, key)
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.cache[key] = &rtRespEntry{pkts: pkts, ret: ret}
	time.AfterFunc(rt.cfg.ResponseCacheTTL, func() {
		rt.mu.Lock()
		delete(rt.cache, key)
		rt.mu.Unlock()
	})
	rt.mu.Unlock()
	rt.sendGroup(ret, pkts, ^uint32(0), 0)
}

// --- client side ---

func (rt *RT) handleAck(p *Packet) {
	rt.mu.Lock()
	c, ok := rt.calls[p.Txn]
	if !ok {
		rt.mu.Unlock()
		return
	}
	c.acked |= p.Mask
	if c.acked&c.full == c.full {
		if !c.delivered {
			c.delivered = true
			// Switch the timer to the gentle probe cadence.
			interval := c.timeout
			if interval < 50*time.Millisecond {
				interval = 50 * time.Millisecond
			}
			c.timer.Reset(interval)
		}
		rt.mu.Unlock()
		return
	}
	// Selective retransmission: resend only what the receiver's mask
	// says is missing (§4.3).
	c.clean = false
	rt.stats.SelectiveResends++
	route, pkts, acked := c.route, c.pkts, c.acked
	c.timer.Reset(c.timeout)
	rt.mu.Unlock()
	rt.sendGroup(route, pkts, ^uint32(0), acked)
}

func (rt *RT) handleResponse(p *Packet) {
	rt.mu.Lock()
	c, ok := rt.calls[p.Txn]
	if !ok {
		rt.mu.Unlock()
		return // late duplicate response
	}
	if c.resp == nil {
		if p.NPkts == 0 || p.NPkts > MaxGroupPackets || int(p.TotalLen) > maxGroupLen {
			rt.mu.Unlock()
			return
		}
		c.resp = &rtRxGroup{
			nPkts:    p.NPkts,
			totalLen: int(p.TotalLen),
			data:     make([]byte, p.TotalLen),
		}
	}
	placeRT(c.resp, p)
	if !c.resp.complete() {
		c.timer.Reset(c.timeout)
		rt.mu.Unlock()
		return
	}
	delete(rt.calls, c.txn)
	c.timer.Stop()
	rt.stats.CallsCompleted++
	if c.clean {
		rt.recordRTTLocked(c.server, time.Since(c.sent))
	}
	data := c.resp.data
	rt.mu.Unlock()
	c.finish(data, nil)
}

// recordRTTLocked updates the Jacobson estimators; rt.mu must be held.
func (rt *RT) recordRTTLocked(server uint64, rtt time.Duration) {
	srtt, ok := rt.srtt[server]
	if !ok {
		rt.srtt[server] = rtt
		rt.rttvar[server] = rtt / 2
		return
	}
	diff := rtt - srtt
	if diff < 0 {
		diff = -diff
	}
	rt.rttvar[server] = (3*rt.rttvar[server] + diff) / 4
	rt.srtt[server] = (7*srtt + rtt) / 8
}
