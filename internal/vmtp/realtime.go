package vmtp

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/pool"
	"repro/internal/viper"
)

// Carrier is the packet path under a real-time endpoint: Send
// transmits one encoded VMTP packet along a source route. Send must not
// keep pkt or route after it returns: the endpoint returns the buffer
// under pkt to internal/pool after its last Send, and a route decoded
// from a viper.Route (DeliverRoute) lives in scratch the endpoint
// reuses. livenet's Host.SendFrom, which seals the route and copies
// the bytes into its own pooled frame before it returns, satisfies it
// via CarrierFunc.
type Carrier interface {
	Send(route []viper.Segment, pkt []byte) error
}

// CarrierFunc adapts a function to the Carrier interface.
type CarrierFunc func(route []viper.Segment, pkt []byte) error

// Send implements Carrier.
func (f CarrierFunc) Send(route []viper.Segment, pkt []byte) error { return f(route, pkt) }

// RTHandler serves requests on a real-time endpoint. It runs on one of
// the endpoint's handler workers, never under its lock, and MAY block
// (that is the backpressure path): a request that arrives meanwhile
// gets another worker. ret is the trailer-built return route of the
// request's freshest packet. Its segment slice is borrowed until the
// handler returns; a handler that keeps the route clones the slice
// (slices.Clone), whose fields stay valid, and never writes the field
// bytes. data is borrowed until the handler returns, unless returned:
// the endpoint reuses it for a later request unless the response
// shares its backing array. The endpoint keeps the returned bytes in
// its response cache and only reads them, so they may be shared and
// must not change afterwards.
type RTHandler func(from uint64, data []byte, ret []viper.Segment) []byte

// maxIdleWorkers bounds the handler workers an endpoint keeps parked
// between requests; a worker that answers with this many already parked
// exits (DESIGN §16).
const maxIdleWorkers = 4

// RT is a real-time VMTP entity: the transaction machine driven by
// wall-clock timers over an arbitrary Carrier, so real application
// bytes (internal/gateway) ride VMTP packet groups over the livenet
// substrate. All methods are safe for concurrent use. A mutex guards
// the machine; RT never holds it across Carrier.Send, a PacingGap
// sleep, the handler or a completion callback. Arrivals are stepped on
// the goroutine that delivers them, so RT's only goroutines are its
// handler workers: as many as handlers run at once, plus up to
// maxIdleWorkers parked. A call has none of its own.
//
// A call completes one way: its done callback, queued by the step that
// finished it and run after that step releases the mutex. Start is the
// asynchronous form; Call blocks on it, so a transaction that cannot
// complete holds its caller and the backpressure reaches whatever
// socket feeds it. Finished calls go back on a free list, timer and
// waiter included, and a served request borrows its bytes from
// internal/pool, so a steady-state transaction allocates only the bytes
// it hands to someone else.
type RT struct {
	car Carrier

	mu      sync.Mutex
	m       machine
	closed  bool
	handler RTHandler
	stats   Stats
	out     []transmission // sends the current step queued
	fin     []completion   // completions the current step queued
	served  []job          // requests the current step served
	free    []*call        // finished calls, ready for reuse

	idle   atomic.Int32                                  // handler workers parked on jobs
	spares [spareScratch]atomic.Pointer[[]viper.Segment] // route scratch, taken without mu
	jobs   chan job                                      // unbuffered: a send succeeds only to a parked worker
	done   chan struct{}
	wg     sync.WaitGroup
}

// A completion is one finished call's callback, run after the step
// that finished it released mu. done borrows data; buf, the call's
// pooled response buffer, is recycled once done returns.
type completion struct {
	done func([]byte, error)
	data []byte
	err  error
	buf  []byte
}

// A job is one served request on its way to a handler worker, with the
// handler installed when it was served and the request's return route
// as segments. A route that came as a viper.Route is decoded once, into
// scratch the job owns: the step's flush sends the ack along it before
// it hands the job on, and the worker lends it to the handler and sends
// the response along it before it puts the scratch back.
type job struct {
	h       RTHandler
	key     groupKey
	data    []byte
	ret     []viper.Segment
	scratch *[]viper.Segment // ret's storage when decoded; nil otherwise
}

// NewRT creates a real-time VMTP entity with identifier id over the
// carrier. The caller feeds arriving packets through Deliver and must
// Close the endpoint when done.
func NewRT(id uint64, car Carrier, cfg Config) *RT {
	rt := &RT{car: car, jobs: make(chan job), done: make(chan struct{})}
	rt.m.init(id, cfg, &wallClock{epoch: time.Now(), fire: rt.onTimer}, rt, &rt.stats)
	return rt
}

// SetHandler installs the request handler (server role). A request is
// served by the handler installed when it completed, on a handler
// worker; requests whose handlers block run on workers of their own.
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
// ErrClosed, timers are cancelled, parked handler workers exit, and
// running handlers and completions are waited for.
func (rt *RT) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	close(rt.done)
	rt.m.close(ErrClosed)
	rt.unlockAndFlush()
	rt.wg.Wait()
}

// Start issues one transaction to a server entity along a source route
// and returns without waiting; data larger than one packet is segmented
// into a paced packet group (§4.3). done runs once with the response or
// the error, on the goroutine whose step finished the call (a Deliver
// caller, a timer or a handler worker) and never under the endpoint's
// lock, so it may call back into the endpoint. done must not be nil.
// It borrows the response for the duration of the callback and must not
// block, so it must not Call or Close: it holds up the goroutine that
// finished the call. Start borrows data until done runs. If Start
// returns an error, done never runs.
func (rt *RT) Start(server uint64, route []viper.Segment, data []byte, done func([]byte, error)) error {
	_, err := rt.issue(server, route, data, done)
	return err
}

// Call runs one transaction like Start, blocking until the response
// arrives or the call fails. The response is the caller's.
func (rt *RT) Call(server uint64, route []viper.Segment, data []byte) ([]byte, error) {
	c, err := rt.issue(server, route, data, nil)
	if err != nil {
		return nil, err
	}
	<-c.wake
	resp, err := c.got, c.err
	rt.mu.Lock()
	rt.freeCall(c)
	rt.mu.Unlock()
	return resp, err
}

// issue starts a call from the free list. A nil done makes it blocking:
// its completion wakes the caller, who recycles it.
func (rt *RT) issue(server uint64, route []viper.Segment, data []byte, done func([]byte, error)) (*call, error) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, ErrClosed
	}
	c := rt.newCall()
	c.server, c.done = server, done
	if done == nil {
		c.done, c.blocking = c.wakeup, true
	}
	c.route1[0] = route
	c.routes = c.route1[:]
	if err := rt.m.start(c, data); err != nil {
		rt.freeCall(c)
		rt.mu.Unlock()
		return nil, err
	}
	rt.unlockAndFlush()
	return c, nil
}

// newCall takes a call from the free list, or builds one with its
// waiter. Called under mu.
func (rt *RT) newCall() *call {
	if n := len(rt.free); n > 0 {
		c := rt.free[n-1]
		rt.free = rt.free[:n-1]
		return c
	}
	c := &call{wake: make(chan struct{}, 1)}
	c.t.call = c
	c.wakeup = func(data []byte, err error) {
		c.got, c.err = append([]byte(nil), data...), err
		c.wake <- struct{}{}
	}
	return c
}

// freeCall puts a finished call back on the free list. Called under mu.
func (rt *RT) freeCall(c *call) {
	c.reset()
	rt.free = append(rt.free, c)
}

// Deliver runs the machine step for one arriving packet on the
// caller's goroutine. data is only read, and only until Deliver
// returns: the machine copies what it keeps. ret must be owned and safe
// to retain, and its bytes are never written. The step's sends and
// completions run on the caller too, so Deliver may block in
// Carrier.Send, and a PacingGap, when set, sleeps between the packets
// of a group the step sends.
func (rt *RT) Deliver(data []byte, ret []viper.Segment) { rt.deliver(data, path{segs: ret}) }

// DeliverRoute is Deliver with the return route as a delivery carries
// it (livenet's Delivery.ReturnRoute): the machine keeps the Route, and
// decodes it into scratch of its own once when it serves the request —
// for the handler, the ack and the response — and otherwise each time
// it sends along it, so a request allocates no segment slice.
func (rt *RT) DeliverRoute(data []byte, ret viper.Route) { rt.deliver(data, path{wire: ret}) }

func (rt *RT) deliver(data []byte, ret path) {
	var p Packet
	err := p.decodeInto(data)
	rt.mu.Lock()
	switch {
	case err != nil:
		rt.stats.ChecksumDrops++
	case !rt.closed:
		// Close waits for the completions this step may run.
		rt.wg.Add(1)
		defer rt.wg.Done()
		rt.m.receive(&p, ret)
	}
	rt.unlockAndFlush()
}

func (rt *RT) onTimer(t *timer) {
	rt.mu.Lock()
	if !rt.closed {
		// Close waits for the completions this step may run.
		rt.wg.Add(1)
		defer rt.wg.Done()
	}
	rt.m.fire(t)
	rt.unlockAndFlush()
}

// A wirePacket is one encoded packet of a flush: the bytes up to end in
// the flush buffer, sent along route, after a PacingGap unless it opens
// its transmission.
type wirePacket struct {
	route path
	end   int
	paced bool
}

// A flush decodes the Routes it sends along into scratch it takes from
// RT.spares and puts back after its last Send, and a served request's
// job holds one until its response is sent. spareScratch bounds the
// slices kept: one per flush or request in progress at once, in the
// usual case; a taker that finds none makes one.
const spareScratch = 2 * maxIdleWorkers

// takeScratch returns a spare segment slice, or a new one.
func (rt *RT) takeScratch() *[]viper.Segment {
	for i := range rt.spares {
		if s := rt.spares[i].Swap(nil); s != nil {
			return s
		}
	}
	return new([]viper.Segment)
}

// putScratch empties s, letting go of the Routes' bytes, and keeps it
// as a spare if a slot is free.
func (rt *RT) putScratch(s *[]viper.Segment) {
	clear(*s)
	*s = (*s)[:0]
	for i := range rt.spares {
		if rt.spares[i].CompareAndSwap(nil, s) {
			return
		}
	}
}

// unlockAndFlush ends a step. Still under mu it encodes the packets the
// step queued into one pooled buffer, so no caller's bytes are read
// once the lock is gone and Start's data is free as soon as done runs.
// Then it releases mu, hands the packets to the carrier, decoding a
// Route path once per transmission into spare scratch, recycles the
// buffer and the scratch after the last Send, hands the requests the
// step served to handler workers, and runs the completions the step
// queued. A served request's ack goes out before its handler starts,
// so the two never read the job's route at once.
func (rt *RT) unlockAndFlush() {
	var wstack [MaxGroupPackets + 1]wirePacket
	var fstack [4]completion
	var jstack [1]job
	wire := wstack[:0]
	var buf []byte
	if len(rt.out) > 0 {
		n := 0
		for i := range rt.out {
			for j, p := range rt.out[i].packets() {
				if rt.out[i].skip&(1<<uint(j)) == 0 {
					n += HeaderLen + len(p.Data)
				}
			}
		}
		buf = pool.Get(n)
		ts := nowTimestamp()
		for i := range rt.out {
			x := &rt.out[i]
			first := true
			for j, p := range x.packets() {
				if x.skip&(1<<uint(j)) != 0 {
					continue
				}
				p.Timestamp = ts
				buf = p.appendEncoded(buf)
				wire = append(wire, wirePacket{route: x.route, end: len(buf), paced: !first})
				first = false
			}
		}
		clear(rt.out)
		rt.out = rt.out[:0]
	}
	fins := append(fstack[:0], rt.fin...)
	clear(rt.fin)
	rt.fin = rt.fin[:0]
	jobs := append(jstack[:0], rt.served...)
	clear(rt.served)
	rt.served = rt.served[:0]
	rt.mu.Unlock()

	start := 0
	var route []viper.Segment
	var scratch *[]viper.Segment
	for _, w := range wire {
		if w.paced && rt.m.cfg.PacingGap > 0 {
			time.Sleep(rt.m.cfg.PacingGap)
		}
		if !w.paced {
			if len(w.route.segs) == 0 && scratch == nil {
				scratch = rt.takeScratch()
			}
			route = w.route.segments(scratch)
		}
		rt.car.Send(route, buf[start:w.end:w.end])
		start = w.end
	}
	if buf != nil {
		pool.Put(buf)
	}
	if scratch != nil {
		rt.putScratch(scratch)
	}
	for _, j := range jobs {
		rt.dispatch(j)
	}
	for _, f := range fins {
		f.done(f.data, f.err)
		if f.buf != nil {
			pool.Put(f.buf)
		}
	}
}

// send, serve and finish are the machine's driver, called under mu.

func (rt *RT) send(x transmission) { rt.out = append(rt.out, x) }

// serve queues the request's job for the step's flush to dispatch,
// decoding a Route return path into the job's scratch, and returns the
// segments as the path the ack and the response go along.
func (rt *RT) serve(key groupKey, data []byte, ret path) path {
	j := job{h: rt.handler, key: key, data: data, ret: ret.segs}
	if len(j.ret) == 0 {
		j.scratch = rt.takeScratch()
		j.ret = ret.segments(j.scratch)
	}
	rt.served = append(rt.served, j)
	return path{segs: j.ret}
}

// dispatch hands a served request to a parked handler worker, or
// starts a worker when none is parked, so blocked handlers never hold
// up another request. It runs in the serving step's flush, which holds
// the endpoint's wait group, so Close waits for the worker too.
func (rt *RT) dispatch(j job) {
	select {
	case rt.jobs <- j:
		rt.idle.Add(-1)
	default:
		rt.wg.Add(1)
		go rt.worker(j)
	}
}

// finish queues c's completion. A Start call goes straight back on the
// free list; a blocking Call's caller recycles its own once woken.
func (rt *RT) finish(c *call, data []byte, err error) {
	rt.fin = append(rt.fin, completion{done: c.done, data: data, err: err, buf: c.resp.data})
	if !c.blocking {
		rt.freeCall(c)
	}
}

// worker is a handler worker: it runs j's handler and hands the answer
// back to the machine, then parks for the next job dispatch hands it.
// It exits instead when maxIdleWorkers are already parked, and on
// Close. The handler borrows the job's route, and the response goes
// along it; the job's scratch is put back once that flush is done.
func (rt *RT) worker(j job) {
	defer rt.wg.Done()
	for {
		var resp []byte
		if j.h != nil {
			resp = j.h(j.key.client, j.data, j.ret)
		}
		rt.mu.Lock()
		park := !rt.closed && rt.idle.Load() < maxIdleWorkers
		if rt.closed {
			release(j.data, resp)
		} else {
			rt.m.respond(j.key, j.data, resp)
		}
		if park {
			rt.idle.Add(1)
		}
		rt.unlockAndFlush()
		if j.scratch != nil {
			rt.putScratch(j.scratch)
		}
		if !park {
			return
		}
		select {
		case j = <-rt.jobs:
		case <-rt.done:
			return
		}
	}
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
