package vmtp

import (
	"time"

	"repro/internal/clock"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/viper"
)

// Handler serves requests: it receives the caller's entity identifier
// and request data and returns the response data. data is borrowed
// until the handler returns, unless returned: the endpoint reuses it
// for a later request unless the response shares its backing array.
type Handler func(from uint64, data []byte) []byte

// Endpoint is a VMTP entity bound to one Sirpent host endpoint, driving
// the transaction machine under virtual time. The 64-bit entity
// identifier is "unique independent of the (inter)network layer
// addressing" (§4.1), which is what lets VMTP survive misdelivery,
// migration and multi-homing.
type Endpoint struct {
	eng     *sim.Engine
	host    *router.Host
	clk     *clock.Clock
	hep     uint8 // host endpoint (intra-host port)
	handler Handler
	m       machine

	Stats Stats
}

// NewEndpoint binds a VMTP entity to a host endpoint.
func NewEndpoint(eng *sim.Engine, h *router.Host, clk *clock.Clock, id uint64, hostEndpoint uint8, cfg Config) *Endpoint {
	ep := &Endpoint{eng: eng, host: h, clk: clk, hep: hostEndpoint}
	ep.m.init(id, cfg, &engineClock{eng: eng, clk: clk, fire: ep.m.fire}, ep, &ep.Stats)
	h.Handle(hostEndpoint, ep.deliver)
	return ep
}

// ID returns the entity identifier.
func (ep *Endpoint) ID() uint64 { return ep.m.id }

// SetHandler installs the request handler (server role).
func (ep *Endpoint) SetHandler(h Handler) { ep.handler = h }

// SetRouteAdvisor installs a route-health oracle, typically backed by
// directory advisories (§6.3: "The clients benefit from these routing
// updates by periodically requesting route advisories from the routing
// servers"). Before transmitting on a route, the endpoint asks the
// advisor; a false answer skips straight to the next alternate without
// burning retransmission timeouts.
func (ep *Endpoint) SetRouteAdvisor(fn func(route []viper.Segment) bool) { ep.m.advisor = fn }

// RTT returns the smoothed round-trip estimate toward a server entity,
// or 0 if none yet.
func (ep *Endpoint) RTT(server uint64) sim.Time { return ep.m.rtt[server].srtt }

// Call starts a transaction to a server entity over the given alternate
// source routes (primary first), invoking done with the response or an
// error. Each route must be a full host route (sender directive first).
func (ep *Endpoint) Call(server uint64, routes [][]viper.Segment, data []byte, done func([]byte, error)) error {
	return ep.m.start(&call{server: server, routes: routes, done: done}, data)
}

// Deliver injects a delivery as if it had arrived from the host's
// Sirpent layer; experiment harnesses use it to present crafted packets
// (stale timestamps, corrupted bytes, misdirected entities).
func (ep *Endpoint) Deliver(d *router.Delivery) { ep.deliver(d) }

// deliver is the host-endpoint entry.
func (ep *Endpoint) deliver(d *router.Delivery) {
	var p Packet
	if err := p.decodeInto(d.Data); err != nil {
		// Corrupted en route (Sirpent has no network checksum) or
		// truncated by an undersized hop (§2): the transport discards.
		ep.Stats.ChecksumDrops++
		return
	}
	ep.m.receive(&p, path{segs: d.ReturnRoute})
}

func (ep *Endpoint) send(x transmission) {
	gap := sim.Time(0)
	for i, p := range x.packets() {
		if x.skip&(1<<uint(i)) != 0 {
			continue
		}
		ep.eng.Schedule(gap, func() {
			p.Timestamp = ep.clk.Timestamp()
			ep.host.SendFrom(ep.hep, x.route.segs, p.Encode())
		})
		gap += ep.m.cfg.PacingGap
	}
}

func (ep *Endpoint) serve(key groupKey, data []byte, ret path) path {
	var resp []byte
	if ep.handler != nil {
		resp = ep.handler(key.client, data)
	}
	ep.m.respond(key, data, resp)
	return ret
}

func (ep *Endpoint) finish(c *call, data []byte, err error) {
	if c.done != nil {
		c.done(data, err)
	}
}

// engineClock is the machine's clock under virtual time: timers are
// engine events, timestamps come from the host's (possibly skewed) clock.
type engineClock struct {
	eng  *sim.Engine
	clk  *clock.Clock
	fire func(*timer)
}

func (c *engineClock) now() time.Duration     { return c.eng.Now() }
func (c *engineClock) stamp() clock.Timestamp { return c.clk.Timestamp() }
func (c *engineClock) stop(t *timer)          { c.eng.Cancel(t.ev) }

func (c *engineClock) arm(t *timer, d time.Duration) {
	c.eng.Cancel(t.ev)
	t.ev = c.eng.Schedule(d, func() { c.fire(t) })
}
