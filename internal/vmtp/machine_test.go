package vmtp

import (
	"bytes"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/router"
	"repro/internal/viper"
)

// badGroupHeaders are packets whose group header no sender builds. A
// receiver must count them as corrupt and neither serve nor complete
// anything with them.
var badGroupHeaders = []struct {
	name string
	h    Header
}{
	{"empty group, index past it", Header{NPkts: 0, PktIndex: 40, TotalLen: 16}},
	{"length past the reassembly bound", Header{NPkts: 1, TotalLen: 64 << 20}},
	{"index past the group", Header{NPkts: 1, PktIndex: 5, TotalLen: 16}},
	{"group past the delivery mask", Header{NPkts: MaxGroupPackets + 1, TotalLen: 16}},
}

func TestBadGroupHeadersEndpoint(t *testing.T) {
	for _, tc := range badGroupHeaders {
		t.Run(tc.name+"/request", func(t *testing.T) {
			f := newFixture(t, Config{}, Config{})
			served := 0
			f.server.SetHandler(func(uint64, []byte) []byte { served++; return nil })
			p := Packet{Header: tc.h}
			p.Client, p.Server, p.Txn, p.Kind = f.client.ID(), f.server.ID(), 1, KindRequest
			p.Timestamp = f.server.clk.Timestamp()
			f.server.deliver(&router.Delivery{Data: p.Encode(), Pkt: &viper.Packet{}})
			if served != 0 || f.server.Stats.ChecksumDrops != 1 {
				t.Fatalf("handler ran %d times, ChecksumDrops = %d; want 0 and 1", served, f.server.Stats.ChecksumDrops)
			}
		})
		t.Run(tc.name+"/response", func(t *testing.T) {
			f := newFixture(t, Config{}, Config{})
			done := 0
			f.client.Call(f.server.ID(), f.routes(), []byte("q"), func([]byte, error) { done++ })
			p := Packet{Header: tc.h}
			p.Client, p.Server, p.Txn, p.Kind = f.client.ID(), f.server.ID(), 1, KindResponse
			p.Timestamp = f.client.clk.Timestamp()
			f.client.deliver(&router.Delivery{Data: p.Encode(), Pkt: &viper.Packet{}})
			if done != 0 || f.client.Stats.ChecksumDrops != 1 {
				t.Fatalf("call finished %d times, ChecksumDrops = %d; want 0 and 1", done, f.client.Stats.ChecksumDrops)
			}
		})
	}
}

func TestBadGroupHeadersRT(t *testing.T) {
	blackhole := CarrierFunc(func([]viper.Segment, []byte) error { return nil })
	for _, tc := range badGroupHeaders {
		t.Run(tc.name+"/request", func(t *testing.T) {
			server := NewRT(0x51, blackhole, RTConfig{})
			defer server.Close()
			var served atomic.Int64
			server.SetHandler(func(uint64, []byte, []viper.Segment) []byte { served.Add(1); return nil })
			p := Packet{Header: tc.h}
			p.Client, p.Server, p.Txn, p.Kind, p.Timestamp = 0xC1, 0x51, 1, KindRequest, nowTimestamp()
			server.Deliver(p.Encode(), testRoute)
			waitFor(t, time.Second, func() bool { return server.Stats().ChecksumDrops == 1 })
			if n := served.Load(); n != 0 {
				t.Fatalf("handler ran %d times", n)
			}
		})
		t.Run(tc.name+"/response", func(t *testing.T) {
			client := NewRT(0xC1, blackhole, RTConfig{BaseTimeout: time.Second})
			errc := make(chan error, 1)
			go func() {
				_, err := client.Call(0x51, testRoute, []byte("q"))
				errc <- err
			}()
			waitFor(t, time.Second, func() bool { return client.Stats().CallsStarted == 1 })
			p := Packet{Header: tc.h}
			p.Client, p.Server, p.Txn, p.Kind, p.Timestamp = 0xC1, 0x51, 1, KindResponse, nowTimestamp()
			client.Deliver(p.Encode(), testRoute)
			waitFor(t, time.Second, func() bool { return client.Stats().ChecksumDrops == 1 })
			client.Close()
			if err := <-errc; !errors.Is(err, ErrClosed) {
				t.Fatalf("call ended with %v, want ErrClosed", err)
			}
		})
	}
}

// fakeWorld is a hand-advanced clock shared by the machines under test.
type fakeWorld struct {
	now    time.Duration
	timers []fakeTimer
}

type fakeTimer struct {
	t *timer
	m *machine
}

// fakeClock is one machine's view of a fakeWorld.
type fakeClock struct {
	w *fakeWorld
	m *machine
}

func (c fakeClock) now() time.Duration     { return c.w.now }
func (c fakeClock) stamp() clock.Timestamp { return clock.Timestamp(1e6 + c.w.now/time.Millisecond) }
func (c fakeClock) stop(*timer)            {}

func (c fakeClock) arm(t *timer, _ time.Duration) {
	for _, ft := range c.w.timers {
		if ft.t == t {
			return
		}
	}
	c.w.timers = append(c.w.timers, fakeTimer{t, c.m})
}

// advance fires every timer due by to, earliest first, and calls after
// each fire.
func (w *fakeWorld) advance(to time.Duration, after func()) {
	for {
		next := -1
		for i, ft := range w.timers {
			if ft.t.armed && ft.t.at <= to && (next < 0 || ft.t.at < w.timers[next].t.at) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		ft := w.timers[next]
		w.now = max(w.now, ft.t.at)
		ft.m.fire(ft.t)
		after()
	}
	w.now = max(w.now, to)
}

// fakeNet is one machine's driver: it collects sends, queues requests
// for a later answer, counts finishes per transaction and, as RT does,
// puts finished calls on a free list for the next start to reuse.
type fakeNet struct {
	m        *machine
	st       Stats
	sent     []transmission
	pending  []unanswered
	finished map[uint32]int
	free     []*call
}

// unanswered is a request the fake's handler has yet to answer.
type unanswered struct {
	key  groupKey
	data []byte
}

// send keeps a copy of the group's packets, as RT's flush encodes them
// before a recycled call can rewrite its packet slice.
func (n *fakeNet) send(x transmission) {
	x.pkts = slices.Clone(x.pkts)
	n.sent = append(n.sent, x)
}

func (n *fakeNet) serve(key groupKey, data []byte, ret path) path {
	n.pending = append(n.pending, unanswered{key, data})
	return ret
}

func (n *fakeNet) finish(c *call, _ []byte, _ error) {
	n.finished[c.txn]++
	n.recycle(c)
}

func (n *fakeNet) recycle(c *call) {
	c.reset()
	n.free = append(n.free, c)
}

// newCall reuses the most recently finished call, like RT's free list.
func (n *fakeNet) newCall() *call {
	if k := len(n.free); k > 0 {
		c := n.free[k-1]
		n.free = n.free[:k-1]
		return c
	}
	return new(call)
}

func newFakeNet(w *fakeWorld, id uint64, cfg Config) *fakeNet {
	n := &fakeNet{m: new(machine), finished: make(map[uint32]int)}
	n.m.init(id, cfg, fakeClock{w, n.m}, n, &n.st)
	return n
}

// TestCachedEchoKeepsItsBytes: an echo's answer shares its request's
// pooled buffer, so the buffer stays with the response cache. A later
// request reassembles elsewhere, and a duplicate of the first is still
// answered with the first one's bytes.
func TestCachedEchoKeepsItsBytes(t *testing.T) {
	server := newFakeNet(&fakeWorld{}, 0x51, Config{})
	route := []viper.Segment{{Port: 1}}
	request := func(txn uint32, fill byte) Packet {
		return Packet{
			Header: Header{Client: 0xC1, Server: 0x51, Txn: txn, Kind: KindRequest, NPkts: 1, TotalLen: 300, Timestamp: server.m.clk.stamp()},
			Data:   bytes.Repeat([]byte{fill}, 300),
		}
	}
	for txn, fill := range []byte{'a', 'b'} {
		p := request(uint32(txn+1), fill)
		server.m.receive(&p, path{segs: route})
		req := server.pending[0]
		server.pending = server.pending[1:]
		server.m.respond(req.key, req.data, req.data)
	}
	server.sent = nil
	dup := request(1, 'a')
	server.m.receive(&dup, path{segs: route})
	if len(server.sent) != 1 {
		t.Fatalf("duplicate answered with %d transmissions, want 1", len(server.sent))
	}
	if got := server.sent[0].packets()[0].Data; !bytes.Equal(got, dup.Data) {
		t.Fatalf("cached echo now reads %q..., want the first request's bytes", got[:4])
	}
}

// fuzzOps reads a machine script: each op is one byte of kind and the
// bytes its kind consumes.
type fuzzOps struct{ b []byte }

func (o *fuzzOps) byte() byte {
	if len(o.b) == 0 {
		return 0
	}
	c := o.b[0]
	o.b = o.b[1:]
	return c
}

func (o *fuzzOps) u32() uint32 {
	return uint32(o.byte())<<24 | uint32(o.byte())<<16 | uint32(o.byte())<<8 | uint32(o.byte())
}

// Ops of a machine script.
const (
	opCall     = iota // size byte x 256 bytes, routes byte
	opToServer        // drop-mask byte: deliver the client's sends
	opToClient        // drop-mask byte: deliver the server's sends
	opCrafted         // to-client byte, then a header: kind, txn, index, n, flags, mask(4), total(4), data len
	opAdvance         // milliseconds byte (x 8)
	opAnswer          // size byte: the server answers its oldest pending request
	numOps
)

// FuzzMachine drives a client and a server machine with calls, lossy
// delivery, crafted packets, answers and clock advances, and holds the
// machine to its contract: no panic, no reassembly buffer past
// maxGroupLen, every call finished at most once and, once the clock has
// run past CallTimeout, exactly once, and CallsStarted always equal to
// CallsCompleted + CallsFailed + outstanding. The client reuses
// finished calls the way RT's free list does, so a stale timer of a
// recycled call is part of what it explores.
func FuzzMachine(f *testing.F) {
	const routes2 = 2
	f.Add([]byte{opCall, 1, 1, opToServer, 0, opAnswer, 1, opToClient, 0})
	f.Add([]byte{opCall, 40, routes2, opToServer, 0x55, opAdvance, 2, opToServer, 0, opAnswer, 90, opToClient, 0x0F, opAdvance, 20, opToServer, 0, opToClient, 0})
	f.Add([]byte{opCall, 4, 1, opToServer, 0, opToClient, 0, opAdvance, 100, opToServer, 0, opAnswer, 4, opToClient, 0, opAdvance, 255})
	f.Add([]byte{opCall, 0, routes2, opAdvance, 255, opAdvance, 255, opToServer, 0xFF, opAdvance, 255})
	f.Add([]byte{opCrafted, 0, byte(KindRequest), 1, 40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16, 16})
	f.Add([]byte{opCall, 2, 1, opCrafted, 1, byte(KindResponse), 1, 0, 1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 8})
	f.Add([]byte{opCall, 2, 1, opCrafted, 1, byte(KindAck), 1, 0, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, opAdvance, 50})
	f.Fuzz(func(t *testing.T, script []byte) {
		w := &fakeWorld{}
		cfg := Config{MaxRetries: 2}
		client := newFakeNet(w, 0xC1, cfg)
		server := newFakeNet(w, 0x51, cfg)
		route := []viper.Segment{{Port: 1}}
		var started []uint32 // txns
		check := func() {
			for _, n := range []*fakeNet{client, server} {
				for _, g := range n.m.groups {
					if len(g.data) > maxGroupLen {
						t.Fatalf("reassembly buffer of %d bytes", len(g.data))
					}
				}
				for _, c := range n.m.calls {
					if len(c.resp.data) > maxGroupLen {
						t.Fatalf("response buffer of %d bytes", len(c.resp.data))
					}
				}
				for txn, k := range n.finished {
					if k > 1 {
						t.Fatalf("call %d finished %d times", txn, k)
					}
				}
				if s := n.st; s.CallsStarted != s.CallsCompleted+s.CallsFailed+uint64(len(n.m.calls)) {
					t.Fatalf("started %d != completed %d + failed %d + outstanding %d",
						s.CallsStarted, s.CallsCompleted, s.CallsFailed, len(n.m.calls))
				}
			}
		}
		deliver := func(from, to *fakeNet, drop byte) {
			sent := from.sent
			from.sent = nil
			i := 0
			for _, x := range sent {
				for j, p := range x.packets() {
					if x.skip&(1<<uint(j)) != 0 {
						continue
					}
					if drop&(1<<uint(i%8)) == 0 {
						p.Timestamp = from.m.clk.stamp()
						to.m.receive(&p, path{segs: route})
					}
					i++
				}
			}
		}
		ops := &fuzzOps{script}
		for steps := 0; len(ops.b) > 0 && steps < 64; steps++ {
			switch ops.byte() % numOps {
			case opCall:
				size, nRoutes := int(ops.byte())*256, 1+int(ops.byte()%2)
				c := client.newCall()
				c.server, c.routes = server.m.id, make([][]viper.Segment, nRoutes)
				for i := range c.routes {
					c.routes[i] = route
				}
				if client.m.start(c, make([]byte, size)) == nil {
					started = append(started, c.txn)
				} else {
					client.recycle(c)
				}
			case opToServer:
				deliver(client, server, ops.byte())
			case opToClient:
				deliver(server, client, ops.byte())
			case opCrafted:
				to := server
				if ops.byte()%2 == 1 {
					to = client
				}
				p := Packet{Header: Header{Client: client.m.id, Server: server.m.id, Kind: Kind(ops.byte() % 3),
					Txn: uint32(ops.byte() % 4), PktIndex: ops.byte(), NPkts: ops.byte(), Flags: ops.byte(),
					Mask: ops.u32(), TotalLen: ops.u32(), Timestamp: to.m.clk.stamp()}}
				p.Data = make([]byte, ops.byte())
				to.m.receive(&p, path{segs: route})
			case opAdvance:
				w.advance(w.now+time.Duration(ops.byte())*8*time.Millisecond, check)
			case opAnswer:
				if len(server.pending) > 0 {
					req := server.pending[0]
					server.pending = server.pending[1:]
					server.m.respond(req.key, req.data, make([]byte, int(ops.byte())*128))
				}
			}
			check()
		}
		// With nothing delivered any more, every call must end by its
		// deadline.
		w.advance(w.now+cfg.withDefaults().CallTimeout+maxTimeout, func() {
			client.sent, server.sent = nil, nil
			check()
		})
		for _, txn := range started {
			if k := client.finished[txn]; k != 1 {
				t.Fatalf("call %d finished %d times after its deadline", txn, k)
			}
		}
	})
}
