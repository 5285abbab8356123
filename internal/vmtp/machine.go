package vmtp

import (
	"errors"
	"fmt"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/viper"
)

// Config tunes a VMTP entity, simulated or real-time. The zero value
// gets defaults sized for a LAN-scale mesh.
type Config struct {
	// PacingGap is VMTP's rate-based flow control: the inter-packet gap
	// within a packet group (§4.3). Zero sends back to back.
	PacingGap time.Duration
	// BaseTimeout seeds the retransmission timer before an RTT estimate
	// exists. Default 50ms.
	BaseTimeout time.Duration
	// MaxRetries bounds data retransmissions on one route before the
	// call fails over to the next alternate route, or fails on the last
	// one. Probes after a full-group ack do not count. Default 8.
	MaxRetries int
	// CallTimeout bounds one whole transaction, including the time a
	// remote handler may block for backpressure. Default 2m.
	CallTimeout time.Duration
	// GapAckDelay is how long a receiver waits on an incomplete, quiet
	// group before sending a selective ack of what it has (§4.3).
	// Default 2ms.
	GapAckDelay time.Duration
	// MPL is the maximum packet lifetime the entity accepts; older
	// packets are discarded on arrival (§4.2). Default 30s.
	MPL time.Duration
}

// RTConfig is Config under the name real-time callers know it by.
type RTConfig = Config

func (c Config) withDefaults() Config {
	orDefault(&c.BaseTimeout, 50*time.Millisecond)
	orDefault(&c.MaxRetries, 8)
	orDefault(&c.CallTimeout, 2*time.Minute)
	orDefault(&c.GapAckDelay, 2*time.Millisecond)
	orDefault(&c.MPL, 30*time.Second)
	return c
}

func orDefault[T comparable](field *T, def T) {
	var zero T
	if *field == zero {
		*field = def
	}
}

const (
	maxTimeout       = 2 * time.Second       // cap on the backed-off retransmission timer
	groupTimeout     = 10 * time.Second      // an incomplete request group is discarded after this
	responseCacheTTL = 10 * time.Second      // duplicate-suppression window
	probeInterval    = 50 * time.Millisecond // floor on the probe cadence
	maxGroupLen      = MaxGroupPackets << 16 // bound on the reassembly buffer a header can demand
	futureSlack      = 5 * time.Second       // how far a receiver's clock may run behind a sender's (§4.2)
)

// FlagProbe marks a data-less KindRequest packet as a status probe: it
// elicits the cached response, or a full-mask ack while the handler
// runs. Clients probe instead of resending once the full group is acked.
const FlagProbe uint8 = 0x01

// Stats counts transport events.
type Stats struct {
	CallsStarted     uint64
	CallsCompleted   uint64
	CallsFailed      uint64
	Retransmissions  uint64
	SelectiveResends uint64 // resends of only what a receiver's mask lacks
	RouteFailovers   uint64
	AdvisorySkips    uint64 // routes skipped on directory advice (§6.3)
	StaleDrops       uint64 // packets older than MPL (§4.2)
	ChecksumDrops    uint64 // corrupted or truncated packets, or impossible group headers (§4.1)
	Misdelivered     uint64 // entity identifier mismatch (§4.1)
	DupRequests      uint64 // answered from the response cache
	AcksSent         uint64
	QueueDrops       uint64 // always 0: RT steps each arrival on its deliverer and queues none
}

// Errors.
var (
	ErrNoRoutes    = errors.New("vmtp: no routes supplied")
	ErrCallFailed  = errors.New("vmtp: transaction failed (retries exhausted on every route)")
	ErrCallTimeout = errors.New("vmtp: transaction timed out")
	ErrClosed      = errors.New("vmtp: endpoint closed")
)

// timers is the clock under a machine: sim.Engine (engineClock) or the
// wall clock (wallClock). arm schedules a call to the machine's fire
// with t after d, replacing any earlier arming; stop cancels it.
type timers interface {
	now() time.Duration
	stamp() clock.Timestamp // the §4.2 creation timestamp for "now"
	arm(t *timer, d time.Duration)
	stop(t *timer)
}

// driver carries out a machine's outputs.
type driver interface {
	send(x transmission) // paced by PacingGap, each packet stamped as it leaves
	// serve hands a complete request to the handler, which borrows data
	// from internal/pool; the driver calls respond with the request and
	// the answer, in the same step or later, or release once closed. It
	// returns the form of ret the machine sends the request's ack and
	// response along: ret itself, or ret decoded once for all three.
	serve(key groupKey, data []byte, ret path) path
	// finish ends c, once per call, with its response or err. The
	// response reassembly buffer, c.resp.data, comes from internal/pool
	// (also on failure, when partly filled): the driver decides whether
	// c.done keeps it or only borrows it.
	finish(c *call, data []byte, err error)
}

// A timer is a call's retransmission timer (call set), a request
// group's gap-ack timer (group set) or the response cache's sweep. The
// machine owns at and armed; ev and wall are the two clocks' handles.
type timer struct {
	call  *call
	group *rxGroup
	at    time.Duration
	armed bool
	ev    sim.EventID
	wall  *time.Timer
}

// A transmission is one send output: the packets of the group not in
// skip, along route.
type transmission struct {
	route path
	group
	skip uint32
}

// A path is a route the machine sends along, in the form it came in: a
// caller's segments (a call's routes, Deliver's return route), or a
// delivery's return route as wire bytes (RT.DeliverRoute), which the
// driver decodes when it sends.
type path struct {
	segs []viper.Segment
	wire viper.Route
}

func (p path) empty() bool { return len(p.segs) == 0 && p.wire.Len() == 0 }

// segments returns p as segments: its own, or its wire bytes decoded
// onto the end of *scratch, which keeps them until it is reused.
func (p path) segments(scratch *[]viper.Segment) []viper.Segment {
	if len(p.segs) > 0 {
		return p.segs
	}
	start := len(*scratch)
	*scratch = p.wire.Segments(*scratch)
	return (*scratch)[start:len(*scratch):len(*scratch)]
}

// A group is a packet group as a value: the packets of pkts, or the
// single packet one when pkts is empty, so a one-packet group needs no
// slice of its own.
type group struct {
	pkts []Packet
	one  [1]Packet
}

func (g *group) packets() []Packet {
	if len(g.pkts) > 0 {
		return g.pkts
	}
	return g.one[:]
}

type groupKey struct {
	client uint64
	txn    uint32
}

// rxGroup reassembles one packet group: a request on the server, a
// response on the client.
type rxGroup struct {
	key      groupKey
	nPkts    uint8
	totalLen int
	mask     uint32
	data     []byte
	ret      path // freshest return route
	born     time.Duration
	lastRx   time.Duration // most recent packet arrival (gap detection)
	served   bool          // handed to the handler; data is lent to it
	t        timer
}

func (g *rxGroup) complete() bool { return g.mask == fullMask(g.nPkts) }

// place copies p's data into its slot: packet i sits at offset
// i·ChunkSize(totalLen, nPkts), the equal chunking Segment produces.
func (g *rxGroup) place(p *Packet) {
	bit := uint32(1) << p.PktIndex
	if p.PktIndex >= g.nPkts || g.mask&bit != 0 {
		return
	}
	g.mask |= bit
	if off := int(p.PktIndex) * ChunkSize(g.totalLen, int(g.nPkts)); off <= len(g.data) {
		copy(g.data[off:], p.Data)
	}
}

func fullMask(n uint8) uint32 { return uint32(uint64(1)<<n - 1) }

type respEntry struct {
	key     groupKey
	resp    group
	expires time.Duration
}

// call is one outstanding client transaction. The driver fills server,
// routes and done before start. A driver may reuse a finished call for
// a later start after reset.
type call struct {
	txn       uint32
	server    uint64
	routes    [][]viper.Segment
	route     int // index into routes of the route in use
	req       group
	acked     uint32
	delivered bool // the server acked the full group: probe, don't resend
	retries   int  // data retransmissions on the current route
	rto       time.Duration
	sent      time.Duration // for the RTT sample
	deadline  time.Duration
	clean     bool    // no retransmissions: the RTT sample is valid (Karn)
	resp      rxGroup // response reassembly; nPkts is 0 until the first packet
	t         timer

	done func([]byte, error) // the one completion form

	// The rest is RT's: the inline route of a single-route call, and
	// the waiter of a blocking Call.
	route1   [1][]viper.Segment
	blocking bool          // Call waits on wake and recycles the call itself
	wake     chan struct{} // signalled by wakeup
	wakeup   func([]byte, error)
	got      []byte // Call's owned copy of the response
	err      error
}

// reset readies a finished c for another start. It keeps what a driver
// builds once per call: the timer and its clock handle, the waiter, and
// the request's packet slice, emptied.
//
// A recycled call survives a stale fire of its timer: the machine
// disarmed the timer when c finished, so a fire that was already queued
// finds it unarmed, or — once a later start has re-armed it — before its
// new due time, or due anyway; and fire only acts on a call that
// m.calls still maps its txn to.
func (c *call) reset() {
	clear(c.req.pkts)
	*c = call{
		req:    group{pkts: c.req.pkts[:0]},
		t:      timer{call: c, ev: c.t.ev, wall: c.t.wall},
		wake:   c.wake,
		wakeup: c.wakeup,
	}
}

// machine is one VMTP entity's protocol state.
type machine struct {
	id      uint64
	cfg     Config
	clk     timers
	out     driver
	st      *Stats
	advisor func(route []viper.Segment) bool

	nextTxn uint32
	calls   map[uint32]*call
	groups  map[groupKey]*rxGroup
	cache   map[groupKey]respEntry
	expiry  []respEntry // cache insertions, oldest first
	sweep   timer
	rtt     map[uint64]rttEstimate
	spare   []*rxGroup // finished request groups, for reuse
}

type rttEstimate struct{ srtt, rttvar time.Duration }

func (m *machine) init(id uint64, cfg Config, clk timers, out driver, st *Stats) {
	*m = machine{
		id:     id,
		cfg:    cfg.withDefaults(),
		clk:    clk,
		out:    out,
		st:     st,
		calls:  make(map[uint32]*call),
		groups: make(map[groupKey]*rxGroup),
		cache:  make(map[groupKey]respEntry),
		rtt:    make(map[uint64]rttEstimate),
	}
}

// start issues c: it segments data into the request group and sends it
// on the first route the advisor accepts.
func (m *machine) start(c *call, data []byte) error {
	if len(c.routes) == 0 {
		return ErrNoRoutes
	}
	req, err := packetize(c.req.pkts, data, MaxPacketData, Header{Client: m.id, Server: c.server, Txn: m.nextTxn + 1, Kind: KindRequest})
	if err != nil {
		return err
	}
	m.nextTxn++
	now := m.clk.now()
	c.txn, c.req, c.rto, c.sent, c.deadline, c.clean = m.nextTxn, req, m.rto(c.server), now, now+m.cfg.CallTimeout, true
	c.t.call = c
	m.calls[c.txn] = c
	m.st.CallsStarted++
	m.transmit(c)
	return nil
}

// receive takes one decoded packet and the return route it came with.
func (m *machine) receive(p *Packet, ret path) {
	// Maximum packet lifetime (§4.2): reject packets whose creation
	// timestamp is too old (or absurdly far in the future).
	if p.Timestamp != clock.InvalidTimestamp {
		age := clock.Age(m.clk.stamp(), p.Timestamp)
		if age > m.cfg.MPL.Milliseconds() || age < -futureSlack.Milliseconds() {
			m.st.StaleDrops++
			return
		}
	}
	// Entity identifiers (§4.1): a request must name this entity as its
	// server, a response or ack as its client.
	if p.Kind == KindRequest && p.Server != m.id || p.Kind != KindRequest && p.Client != m.id {
		m.st.Misdelivered++
		return
	}
	switch p.Kind {
	case KindRequest:
		m.onRequest(p, ret)
	case KindResponse:
		m.onResponse(p)
	case KindAck:
		m.onAck(p)
	}
}

// respond caches and sends the handler's answer, data, to the served
// request key, and releases the request's bytes, req.
func (m *machine) respond(key groupKey, req, data []byte) {
	release(req, data)
	g, ok := m.groups[key]
	if !ok {
		return
	}
	ret := g.ret
	m.dropGroup(g)
	resp, err := packetize(nil, data, MaxPacketData, Header{Client: key.client, Server: m.id, Txn: key.txn, Kind: KindResponse})
	if err != nil {
		return
	}
	e := respEntry{key: key, resp: resp, expires: m.clk.now() + responseCacheTTL}
	m.cache[key] = e
	m.expiry = append(m.expiry, e)
	if !m.sweep.armed {
		m.arm(&m.sweep, responseCacheTTL)
	}
	m.send(ret, resp, 0)
}

// fire is the timer input. A stale fire — the timer was stopped or
// re-armed after its clock queued it — is ignored.
func (m *machine) fire(t *timer) {
	if !t.armed || m.clk.now() < t.at {
		return
	}
	t.armed = false
	switch {
	case t.call != nil:
		if m.calls[t.call.txn] == t.call {
			m.callTimer(t.call)
		}
	case t.group != nil:
		m.groupTimer(t.group)
	default:
		m.sweepCache()
	}
}

// close fails every outstanding call with err, stops the call and
// group timers and returns the buffers of groups still reassembling.
// The cache sweep stays armed, so cached responses expire on their TTL
// after close as before (DESIGN §16).
func (m *machine) close(err error) {
	for _, c := range m.calls {
		m.fail(c, err)
	}
	for _, g := range m.groups {
		m.stop(&g.t)
		if g.data != nil {
			pool.Put(g.data)
			g.data = nil
		}
	}
}

// transmit sends c's unacked request packets on its current route —
// first skipping routes the advisor reports unhealthy, without burning
// timeouts on them (§6.3) — and arms the backed-off retransmission timer.
func (m *machine) transmit(c *call) {
	if m.advisor != nil {
		for c.route+1 < len(c.routes) && !m.advisor(c.routes[c.route]) {
			m.st.AdvisorySkips++
			c.nextRoute()
		}
	}
	m.send(path{segs: c.routes[c.route]}, c.req, c.acked)
	d := c.rto
	for i := 0; i < c.retries && d < maxTimeout; i++ {
		d *= 2
	}
	m.armCall(c, min(d, maxTimeout))
}

func (c *call) nextRoute() {
	c.route++
	c.retries = 0
	c.acked = 0
}

// armCall arms c's timer for d, or for c's deadline if that is sooner.
func (m *machine) armCall(c *call, d time.Duration) {
	m.arm(&c.t, min(d, c.deadline-m.clk.now()))
}

func (m *machine) callTimer(c *call) {
	if m.clk.now() >= c.deadline {
		m.fail(c, fmt.Errorf("%w (txn %d to %#x)", ErrCallTimeout, c.txn, c.server))
		return
	}
	if c.delivered {
		// The request is fully delivered and the handler is presumably
		// still running: probe gently and let CallTimeout bound the wait.
		probe := c.req.packets()[0]
		probe.Flags |= FlagProbe
		probe.Data = nil
		m.sendOne(path{segs: c.routes[c.route]}, probe)
		m.armCall(c, max(c.rto, probeInterval))
		return
	}
	c.retries++
	c.clean = false
	if c.retries <= m.cfg.MaxRetries {
		m.st.Retransmissions++
	} else if c.route+1 < len(c.routes) {
		// Fail over to the next alternate route (§6.3: the client
		// "switches between these routes based on the performance of
		// the different routes").
		m.st.RouteFailovers++
		c.nextRoute()
	} else {
		m.fail(c, fmt.Errorf("%w (txn %d to %#x, %d retries on each of %d routes)",
			ErrCallFailed, c.txn, c.server, m.cfg.MaxRetries, len(c.routes)))
		return
	}
	m.transmit(c)
}

func (m *machine) onAck(p *Packet) {
	c, ok := m.calls[p.Txn]
	if !ok {
		return
	}
	c.acked |= p.Mask
	if fullMask(uint8(len(c.req.packets())))&^c.acked == 0 {
		if !c.delivered {
			c.delivered = true
			m.armCall(c, max(c.rto, probeInterval))
		}
		return
	}
	// Selective retransmission: resend only what the receiver's mask
	// says is missing (§4.3).
	c.clean = false
	m.st.SelectiveResends++
	m.send(path{segs: c.routes[c.route]}, c.req, c.acked)
	m.armCall(c, c.rto)
}

func (m *machine) onResponse(p *Packet) {
	c, ok := m.calls[p.Txn]
	if !ok {
		return // late duplicate response
	}
	if c.resp.nPkts == 0 {
		if !m.groupOK(p) {
			return
		}
		// The response buffer is pooled: the driver's finish decides
		// whether it is handed over or recycled after the callback.
		data := pool.Get(int(p.TotalLen))[:p.TotalLen]
		clear(data)
		c.resp = rxGroup{nPkts: p.NPkts, totalLen: int(p.TotalLen), data: data}
	}
	c.resp.place(p)
	if !c.resp.complete() {
		m.armCall(c, c.rto) // keep waiting for the rest of the group
		return
	}
	m.stop(&c.t)
	delete(m.calls, c.txn)
	m.st.CallsCompleted++
	if c.clean {
		m.recordRTT(c.server, m.clk.now()-c.sent)
	}
	m.out.finish(c, c.resp.data, nil)
}

func (m *machine) fail(c *call, err error) {
	m.stop(&c.t)
	delete(m.calls, c.txn)
	m.st.CallsFailed++
	m.out.finish(c, nil, err)
}

// rto is the retransmission timeout toward server (Jacobson): srtt +
// 4·rttvar, floored at BaseTimeout/4 and capped at maxTimeout; before
// any estimate, BaseTimeout.
func (m *machine) rto(server uint64) time.Duration {
	e := m.rtt[server]
	if e.srtt == 0 {
		return m.cfg.BaseTimeout
	}
	return min(max(e.srtt+4*e.rttvar, m.cfg.BaseTimeout/4), maxTimeout)
}

func (m *machine) recordRTT(server uint64, rtt time.Duration) {
	e, ok := m.rtt[server]
	if !ok {
		e = rttEstimate{srtt: rtt, rttvar: rtt / 2}
	} else {
		e.rttvar = (3*e.rttvar + max(rtt-e.srtt, e.srtt-rtt)) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	m.rtt[server] = e
}

func (m *machine) onRequest(p *Packet, ret path) {
	key := groupKey{client: p.Client, txn: p.Txn}
	now := m.clk.now()
	if e, ok := m.cache[key]; ok && now < e.expires {
		// Duplicate of a completed transaction, or a probe for one:
		// replay the cached response (§4's at-most-once behavior).
		m.st.DupRequests++
		m.send(ret, e.resp, 0)
		return
	}
	g := m.groups[key]
	if p.Flags&FlagProbe != 0 {
		// Probe for an in-progress transaction: re-ack full receipt so
		// the client keeps waiting. Probes for unknown transactions are
		// ignored; the client's CallTimeout is the backstop.
		if g != nil && g.complete() {
			m.ack(g, ret)
		}
		return
	}
	if g == nil {
		if !m.groupOK(p) {
			return
		}
		g = m.spareGroup()
		g.key, g.nPkts, g.totalLen, g.born = key, p.NPkts, int(p.TotalLen), now
		// Pooled, like a response's: the handler borrows it, and respond
		// releases it.
		g.data = pool.Get(int(p.TotalLen))[:p.TotalLen]
		clear(g.data)
		m.groups[key] = g
	}
	g.ret, g.lastRx = ret, now
	g.place(p)
	switch {
	case !g.complete():
		if !g.t.armed {
			m.arm(&g.t, m.cfg.GapAckDelay)
		}
	case g.served:
		// Full duplicate after dispatch: re-ack so the client probes
		// instead of retransmitting data.
		m.ack(g, ret)
	default:
		g.served = true
		m.stop(&g.t)
		data, ack := g.data, m.ackFor(g)
		g.data = nil // lent to the handler; the group is only a marker
		// A synchronous answer recycles g, so nothing reads it after.
		ret = m.out.serve(key, data, ret)
		if _, answered := m.cache[key]; !answered {
			// The full-group ack means "received, response pending": the
			// client stops retransmitting data the moment it arrives. A
			// response ready in this same step makes it redundant. The
			// response goes along the route the handler saw, unless a
			// later copy of the request brings a fresher one.
			g.ret = ret
			m.st.AcksSent++
			m.sendOne(ret, ack)
		}
	}
}

// groupOK reports whether p may start a reassembly, or counts p as
// corrupt when its header claims a group no sender builds.
func (m *machine) groupOK(p *Packet) bool {
	if p.NPkts == 0 || p.NPkts > MaxGroupPackets || p.PktIndex >= p.NPkts || p.TotalLen > maxGroupLen {
		m.st.ChecksumDrops++
		return false
	}
	return true
}

// spareGroup returns a finished request group for reuse, timer
// included, or a new one.
func (m *machine) spareGroup() *rxGroup {
	if n := len(m.spare); n > 0 {
		g := m.spare[n-1]
		m.spare = m.spare[:n-1]
		return g
	}
	g := new(rxGroup)
	g.t.group = g
	return g
}

// dropGroup forgets a request group and keeps it for reuse, returning
// the buffer of one dropped incomplete. Its timer is disarmed, so a
// stale fire is ignored; once reused and re-armed, a fire acts only on
// the group m.groups maps its key to, as for a call.
func (m *machine) dropGroup(g *rxGroup) {
	delete(m.groups, g.key)
	if g.data != nil {
		pool.Put(g.data)
	}
	*g = rxGroup{t: timer{group: g, ev: g.t.ev, wall: g.t.wall}}
	m.spare = append(m.spare, g)
}

// groupTimer runs while a request group is incomplete: once the group
// has gone quiet for GapAckDelay it tells the client which packets
// arrived, so only the missing are resent (§4.3 selective
// retransmission), and it discards a group whose missing packets never
// come. An ack while packets are still streaming in would only trigger
// pointless resends.
func (m *machine) groupTimer(g *rxGroup) {
	if m.groups[g.key] != g || g.complete() {
		return
	}
	now := m.clk.now()
	if now-g.born >= groupTimeout {
		m.dropGroup(g)
		return
	}
	if quiet := now - g.lastRx; quiet < m.cfg.GapAckDelay {
		m.arm(&g.t, m.cfg.GapAckDelay-quiet)
		return
	}
	m.st.AcksSent++
	m.ack(g, g.ret)
	m.arm(&g.t, m.cfg.GapAckDelay)
}

func (m *machine) ack(g *rxGroup, ret path) { m.sendOne(ret, m.ackFor(g)) }

func (m *machine) ackFor(g *rxGroup) Packet {
	return Packet{Header: Header{Client: g.key.client, Server: m.id, Txn: g.key.txn,
		Kind: KindAck, NPkts: g.nPkts, Mask: g.mask}}
}

// release returns a served request's bytes to the pool once its handler
// has answered, unless the answer shares their backing array: the
// response cache then holds them, and the collector frees them with the
// entry. An echo keeps its request's bytes; any other answer lets the
// next request reassemble into them.
func release(req, resp []byte) {
	if !sharesArray(req, resp) {
		pool.Put(req)
	}
}

// sharesArray reports whether a and b overlap anywhere in their
// capacity: b is a slice of a at any offset and length, zero included,
// or the other way round.
func sharesArray(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

// sweepCache drops the cached responses whose window has passed.
func (m *machine) sweepCache() {
	now := m.clk.now()
	for len(m.expiry) > 0 && m.expiry[0].expires <= now {
		x := m.expiry[0]
		m.expiry[0] = respEntry{} // release the packets
		m.expiry = m.expiry[1:]
		if m.cache[x.key].expires == x.expires {
			delete(m.cache, x.key)
		}
	}
	if len(m.expiry) > 0 {
		m.arm(&m.sweep, m.expiry[0].expires-now)
	}
}

func (m *machine) arm(t *timer, d time.Duration) {
	t.at, t.armed = m.clk.now()+d, true
	m.clk.arm(t, d)
}

func (m *machine) stop(t *timer) {
	if t.armed {
		t.armed = false
		m.clk.stop(t)
	}
}

func (m *machine) send(route path, g group, skip uint32) {
	if !route.empty() {
		m.out.send(transmission{route: route, group: g, skip: skip})
	}
}

func (m *machine) sendOne(route path, p Packet) {
	m.send(route, group{one: [1]Packet{p}}, 0)
}
