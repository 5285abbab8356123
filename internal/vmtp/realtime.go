package vmtp

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/pool"
	"repro/internal/viper"
)

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

// RTHandler serves requests on a real-time endpoint. It runs on its
// own goroutine per transaction and MAY block (that is the
// backpressure path); ret is the trailer-built return route of the
// request's freshest packet, deep-copied and safe to retain.
type RTHandler func(from uint64, data []byte, ret []viper.Segment) []byte

const queueDepth = 512 // receive queue between Deliver and the receive goroutine

// RT is a real-time VMTP entity: the transaction machine driven by
// wall-clock timers over an arbitrary Carrier, so real application
// bytes (internal/gateway) ride VMTP packet groups over the livenet
// substrate. All methods are safe for concurrent use. A mutex guards
// the machine; RT never holds it across Carrier.Send, a PacingGap
// sleep or the handler. Call blocks, so a transaction that cannot
// complete holds its caller and the backpressure reaches whatever
// socket feeds it.
type RT struct {
	car Carrier

	mu      sync.Mutex
	m       machine
	closed  bool
	handler RTHandler
	stats   Stats
	out     []transmission // sends the current step queued

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

// NewRT creates a real-time VMTP entity with identifier id over the
// carrier. The caller feeds arriving packets through Deliver and must
// Close the endpoint when done.
func NewRT(id uint64, car Carrier, cfg Config) *RT {
	rt := &RT{car: car, rx: make(chan rtDelivery, queueDepth), done: make(chan struct{})}
	rt.m.init(id, cfg, &wallClock{epoch: time.Now(), fire: rt.onTimer}, rt, &rt.stats)
	rt.wg.Add(1)
	go rt.rxLoop()
	return rt
}

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
	return rt.m.rtt[server].srtt
}

// RTTs returns a copy of every smoothed round-trip estimate, keyed by
// server entity — the per-peer latency view telemetry reports ship to
// the directory.
func (rt *RT) RTTs() map[uint64]time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[uint64]time.Duration, len(rt.m.rtt))
	for k, e := range rt.m.rtt {
		out[k] = e.srtt
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
	rt.m.close(ErrClosed)
	rt.mu.Unlock()
	rt.wg.Wait()
}

// Call runs one transaction to a server entity along a source route,
// blocking until the response arrives or the call fails. data larger
// than one packet is segmented into a paced packet group (§4.3).
func (rt *RT) Call(server uint64, route []viper.Segment, data []byte) ([]byte, error) {
	c := &call{server: server, routes: [][]viper.Segment{route}, result: make(chan callResult, 1)}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, ErrClosed
	}
	if err := rt.m.start(c, data); err != nil {
		rt.mu.Unlock()
		return nil, err
	}
	rt.unlockAndFlush()
	res := <-c.result
	return res.data, res.err
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
// machine copies what it keeps, so nothing aliases it after.
func recycle(p *Packet) {
	if p.Data != nil {
		pool.Put(p.Data)
	}
}

func (rt *RT) rxLoop() {
	defer rt.wg.Done()
	for {
		select {
		case d := <-rt.rx:
			rt.mu.Lock()
			if !rt.closed {
				rt.m.receive(&d.pkt, d.ret)
			}
			rt.unlockAndFlush()
			recycle(&d.pkt)
		case <-rt.done:
			return
		}
	}
}

func (rt *RT) onTimer(t *timer) {
	rt.mu.Lock()
	rt.m.fire(t)
	rt.unlockAndFlush()
}

// unlockAndFlush releases mu, then carries out the sends the step
// queued.
func (rt *RT) unlockAndFlush() {
	var stack [4]transmission
	xs := append(stack[:0], rt.out...)
	clear(rt.out)
	rt.out = rt.out[:0]
	rt.mu.Unlock()
	var buf []byte // the carrier is done with each packet when Send returns
	for i := range xs {
		x := &xs[i]
		first := true
		for j, p := range x.packets() {
			if x.skip&(1<<uint(j)) != 0 {
				continue
			}
			if !first && rt.m.cfg.PacingGap > 0 {
				time.Sleep(rt.m.cfg.PacingGap)
			}
			first = false
			p.Timestamp = nowTimestamp()
			buf = p.encodeInto(buf)
			rt.car.Send(x.route, buf)
		}
	}
}

// send, serve and finish are the machine's driver, called under mu.

func (rt *RT) send(x transmission) { rt.out = append(rt.out, x) }

func (rt *RT) serve(key groupKey, data []byte, ret []viper.Segment) {
	rt.wg.Add(1)
	go rt.runHandler(rt.handler, key, data, ret)
}

func (rt *RT) finish(c *call, data []byte, err error) {
	c.result <- callResult{data: data, err: err}
}

// runHandler serves one request on its own goroutine and hands the
// answer back to the machine.
func (rt *RT) runHandler(h RTHandler, key groupKey, data []byte, ret []viper.Segment) {
	defer rt.wg.Done()
	var resp []byte
	if h != nil {
		resp = h(key.client, data, ret)
	}
	rt.mu.Lock()
	if !rt.closed {
		rt.m.respond(key, resp)
	}
	rt.unlockAndFlush()
}

func nowTimestamp() clock.Timestamp {
	return clock.Timestamp(uint32(time.Now().UnixMilli()))
}

// wallClock is the machine's clock in real time: timers are runtime
// timers, reused across re-arms, whose callback takes the endpoint's
// mutex.
type wallClock struct {
	epoch time.Time
	fire  func(*timer)
}

func (c *wallClock) now() time.Duration     { return time.Since(c.epoch) }
func (c *wallClock) stamp() clock.Timestamp { return nowTimestamp() }

func (c *wallClock) arm(t *timer, d time.Duration) {
	if t.wall == nil {
		t.wall = time.AfterFunc(d, func() { c.fire(t) })
		return
	}
	t.wall.Reset(d)
}

func (c *wallClock) stop(t *timer) {
	if t.wall != nil {
		t.wall.Stop()
	}
}
