package vmtp

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/viper"
)

// testWire is a direct in-process carrier between two RT endpoints
// with seeded pseudorandom packet loss. (Deterministic modular loss —
// "drop every Nth" — phase-locks with fixed-size retransmission
// rounds and can drop the same packet forever; random loss is what
// the recovery machinery is specified against.)
// A filter hook can drop packets by content (e.g. only responses).
// With route set, packets arrive through DeliverRoute with it as their
// return route, as a livenet host hands them over.
type testWire struct {
	mu       sync.Mutex
	dst      *RT
	ret      []viper.Segment
	route    viper.Route
	lossRate float64
	rnd      *rand.Rand
	filter   func(p *Packet) bool // return false to drop
}

func (w *testWire) Send(route []viper.Segment, pkt []byte) error {
	w.mu.Lock()
	drop := w.lossRate > 0 && w.rnd.Float64() < w.lossRate
	w.mu.Unlock()
	if drop {
		return nil
	}
	if w.filter != nil {
		if p, err := Decode(pkt); err == nil && !w.filter(p) {
			return nil
		}
	}
	cp := append([]byte(nil), pkt...)
	if w.route.Len() > 0 {
		w.dst.DeliverRoute(cp, w.route)
	} else {
		w.dst.Deliver(cp, w.ret)
	}
	return nil
}

var testRoute = []viper.Segment{{Port: 1}}

// rtPair wires a client and server RT together.
func rtPair(t *testing.T, cfg RTConfig) (*RT, *RT, *testWire, *testWire) {
	t.Helper()
	toServer := &testWire{ret: testRoute, rnd: rand.New(rand.NewSource(71))}
	toClient := &testWire{ret: testRoute, rnd: rand.New(rand.NewSource(72))}
	client := NewRT(0xC1, CarrierFunc(toServer.Send), cfg)
	server := NewRT(0x51, CarrierFunc(toClient.Send), cfg)
	toServer.dst = server
	toClient.dst = client
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server, toServer, toClient
}

func TestRTBasicCall(t *testing.T) {
	client, server, _, _ := rtPair(t, RTConfig{})
	server.SetHandler(func(from uint64, data []byte, ret []viper.Segment) []byte {
		if from != 0xC1 {
			t.Errorf("from = %#x, want 0xC1", from)
		}
		return append([]byte("echo:"), data...)
	})
	resp, err := client.Call(0x51, testRoute, []byte("hello"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "echo:hello" {
		t.Fatalf("resp = %q", resp)
	}
	if s := client.Stats(); s.CallsCompleted != 1 {
		t.Fatalf("CallsCompleted = %d", s.CallsCompleted)
	}
	if client.RTT(0x51) == 0 {
		t.Fatal("no RTT recorded after clean call")
	}
}

func TestRTLargeGroupUnderLoss(t *testing.T) {
	cfg := RTConfig{
		BaseTimeout: 20 * time.Millisecond,
		GapAckDelay: time.Millisecond,
		MaxRetries:  50,
		CallTimeout: 5 * time.Second,
	}
	client, server, toServer, toClient := rtPair(t, cfg)
	toServer.lossRate = 0.15
	toClient.lossRate = 0.2
	want := make([]byte, 30000)
	rnd := rand.New(rand.NewSource(8))
	rnd.Read(want)
	var got []byte
	server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		got = append([]byte(nil), data...)
		return data
	})
	resp, err := client.Call(0x51, testRoute, want)
	if err != nil {
		t.Fatalf("Call under loss: %v\nclient: %+v\nserver: %+v", err, client.Stats(), server.Stats())
	}
	if !bytes.Equal(got, want) {
		t.Fatal("request data corrupted under loss")
	}
	if !bytes.Equal(resp, want) {
		t.Fatal("response data corrupted under loss")
	}
	s := client.Stats()
	if s.Retransmissions == 0 && s.SelectiveResends == 0 {
		t.Fatal("expected retransmission activity under loss")
	}
}

// TestRTSlowHandlerProbes proves the "received, response pending"
// contract: once the full group is acked, a handler that blocks far
// past the retransmission budget must not fail the call.
func TestRTSlowHandlerProbes(t *testing.T) {
	cfg := RTConfig{
		BaseTimeout: 10 * time.Millisecond,
		MaxRetries:  3,
	}
	client, server, _, _ := rtPair(t, cfg)
	server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		time.Sleep(400 * time.Millisecond) // >> MaxRetries * backoff
		return data
	})
	resp, err := client.Call(0x51, testRoute, []byte("slow"))
	if err != nil {
		t.Fatalf("Call with slow handler: %v", err)
	}
	if string(resp) != "slow" {
		t.Fatalf("resp = %q", resp)
	}
}

// TestRTDuplicateSuppression drops the first response so the client
// retransmits a request the server has already served: the handler
// must run once and the cached response must answer the duplicate.
func TestRTDuplicateSuppression(t *testing.T) {
	cfg := RTConfig{BaseTimeout: 15 * time.Millisecond}
	client, server, _, toClient := rtPair(t, cfg)
	var dropped atomic.Bool
	toClient.filter = func(p *Packet) bool {
		if p.Kind == KindResponse && dropped.CompareAndSwap(false, true) {
			return false
		}
		return true
	}
	var invocations atomic.Int64
	server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		invocations.Add(1)
		return data
	})
	resp, err := client.Call(0x51, testRoute, []byte("once"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "once" {
		t.Fatalf("resp = %q", resp)
	}
	if n := invocations.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
	waitFor(t, time.Second, func() bool { return server.Stats().DupRequests >= 1 })
}

// TestRTReleasesServedGroup checks that nothing holds a served request
// group's bytes once its handler has returned an answer of its own:
// nothing may keep them for the GroupTimeout, or a bulk stream holds
// that many seconds of its traffic on the heap. The bytes come from
// internal/pool, so the proof is reuse: the next request of the same
// size reassembles into the same backing array.
func TestRTReleasesServedGroup(t *testing.T) {
	client, server, _, _ := rtPair(t, RTConfig{})
	arrays := make(chan *byte, 2)
	server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		arrays <- &data[0]
		return nil
	})
	for i := 0; i < 2; i++ {
		if _, err := client.Call(0x51, testRoute, make([]byte, 8*MaxPacketData)); err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
	}
	if first, second := <-arrays, <-arrays; first != second {
		t.Fatal("the second request did not reassemble into the first one's buffer: something still holds it")
	}
}

// TestNewRTStartsNoGoroutine holds RT to stepping arrivals on the
// goroutine that delivers them: an endpoint has no goroutine of its own
// until it serves a request.
func TestNewRTStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := NewRT(1, CarrierFunc(func([]viper.Segment, []byte) error { return nil }), RTConfig{})
	defer rt.Close()
	if n := runtime.NumGoroutine() - before; n > 0 {
		t.Fatalf("NewRT started %d goroutines, want none", n)
	}
}

// TestRTServeWorkers holds RT's handler workers to their contract.
// Handlers that block at once each get a worker, so none waits for
// another. Sequential requests reuse a parked worker instead of
// starting one each. After a burst at most maxIdleWorkers stay parked,
// and Close leaves no goroutine behind.
func TestRTServeWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	client, server, _, _ := rtPair(t, RTConfig{})
	entered, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	workers := make(map[string]bool) // goroutines that ran a sequential handler
	server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		if data[0] == 'b' {
			entered <- struct{}{}
			<-release
			return nil
		}
		var stack [64]byte
		id, _, _ := bytes.Cut(stack[:runtime.Stack(stack[:], false)], []byte(" ["))
		mu.Lock()
		workers[string(id)] = true
		mu.Unlock()
		return nil
	})

	const blocked = 3 * maxIdleWorkers
	done := make(chan error, blocked)
	for i := 0; i < blocked; i++ {
		if err := client.Start(0x51, testRoute, []byte{'b', byte(i)}, func(_ []byte, err error) { done <- err }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < blocked; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d blocking handlers running: the rest wait for a worker", i, blocked)
		}
	}
	close(release)
	for i := 0; i < blocked; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= base+maxIdleWorkers })
	if idle := server.idle.Load(); idle > maxIdleWorkers {
		t.Fatalf("%d workers parked after the burst, want at most %d", idle, maxIdleWorkers)
	}

	const sequential = 200
	for i := 0; i < sequential; i++ {
		if _, err := client.Call(0x51, testRoute, []byte{'s'}); err != nil {
			t.Fatal(err)
		}
	}
	// A worker parks after sending its answer, so the next request can
	// beat it to the hand-off and start another; the parked pool bounds
	// how many ever do.
	if n := len(workers); n > maxIdleWorkers {
		t.Fatalf("%d sequential requests ran on %d goroutines, want at most %d", sequential, n, maxIdleWorkers)
	}
	// The endpoint's wall-clock timers run their callbacks on goroutines
	// of their own (time.AfterFunc), so a snapshot taken as one fires
	// reads one goroutine too many. Wait for the count to settle, as the
	// burst check above does; the bound itself is exact.
	settleGoroutines(t, base+maxIdleWorkers)

	client.Close()
	server.Close()
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= base })
}

// TestSharesArray is the rule that decides whether a served request's
// bytes go back to the pool: only an answer that shares no part of
// their backing array lets them go.
func TestSharesArray(t *testing.T) {
	data := make([]byte, 256)
	whole := make([]byte, 512)
	for _, tc := range []struct {
		name string
		req  []byte
		resp []byte
		want bool
	}{
		{"echo", data, data, true},
		{"first byte", data, data[:1], true},
		{"tail", data, data[200:], true},
		{"empty with capacity", data, data[:0], true},
		{"capacity-capped window", data, data[10:11:11], true},
		{"disjoint", data, make([]byte, 256), false},
		{"adjacent in one array", whole[:256:256], whole[256:], false},
		{"nil", data, nil, false},
	} {
		if got := sharesArray(tc.req, tc.resp); got != tc.want {
			t.Errorf("%s: sharesArray = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRTCallFailsWithoutServer(t *testing.T) {
	cfg := RTConfig{BaseTimeout: 5 * time.Millisecond, MaxRetries: 2}
	blackhole := CarrierFunc(func(_ []viper.Segment, _ []byte) error { return nil })
	client := NewRT(0xC1, blackhole, cfg)
	defer client.Close()
	_, err := client.Call(0x51, testRoute, []byte("void"))
	if !errors.Is(err, ErrCallFailed) {
		t.Fatalf("err = %v, want ErrCallFailed", err)
	}
	if s := client.Stats(); s.CallsFailed != 1 {
		t.Fatalf("CallsFailed = %d", s.CallsFailed)
	}
}

func TestRTClosedEndpoint(t *testing.T) {
	blackhole := CarrierFunc(func(_ []viper.Segment, _ []byte) error { return nil })
	client := NewRT(0xC1, blackhole, RTConfig{})
	client.Close()
	if _, err := client.Call(0x51, testRoute, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	client.Close() // idempotent
}

func TestRTConcurrentCalls(t *testing.T) {
	cfg := RTConfig{
		BaseTimeout: 20 * time.Millisecond,
		GapAckDelay: time.Millisecond,
		MaxRetries:  50,
	}
	client, server, toServer, toClient := rtPair(t, cfg)
	toServer.lossRate = 0.08
	toClient.lossRate = 0.08
	// Requests arrive with a Route, so the server's concurrent flushes
	// and workers all decode into scratch.
	toServer.route = deliveredRoute(t, 4)
	server.SetHandler(func(_ uint64, data []byte, ret []viper.Segment) []byte {
		if len(ret) != 6 || ret[1].PortToken == nil {
			t.Errorf("handler got return route %+v, want the Route's 6 segments", ret)
		}
		return data
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				payload := make([]byte, 100+g*512+i)
				for j := range payload {
					payload[j] = byte(g + i + j)
				}
				resp, err := client.Call(0x51, testRoute, payload)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, payload) {
					errs <- errors.New("echo mismatch")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := client.Stats(); s.CallsCompleted != 64 {
		t.Fatalf("CallsCompleted = %d, want 64", s.CallsCompleted)
	}
}

// directPair is two RT endpoints whose carriers hand the sender's bytes
// straight to the peer. The server echoes a small request and answers a
// group-sized one with its first byte.
func directPair(t *testing.T) (client, server *RT, route []viper.Segment) {
	route = []viper.Segment{{Port: 1}}
	client = NewRT(1, CarrierFunc(func(_ []viper.Segment, pkt []byte) error {
		server.Deliver(pkt, route)
		return nil
	}), RTConfig{})
	server = NewRT(2, CarrierFunc(func(_ []viper.Segment, pkt []byte) error {
		client.Deliver(pkt, route)
		return nil
	}), RTConfig{})
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		if len(data) > MaxPacketData {
			return data[:1]
		}
		return data
	})
	return client, server, route
}

// TestRTCallAllocs pins what one blocking transaction costs in
// allocations, on both endpoints together: a 256-byte echo (the gw_rr
// shape) and a full 32-packet group answered with one byte (the
// gw_upload shape). What is left is what a call hands to someone else:
// the copy of the response Call gives its caller, and the request bytes,
// which this server's answers share, so the response cache keeps them.
// The handler runs on a parked worker, and a recycled call reuses its
// request's packet slice.
func TestRTCallAllocs(t *testing.T) {
	client, _, route := directPair(t)
	for _, tc := range []struct {
		name string
		size int
		want float64
	}{
		{"echo256", 256, 2},
		{"group32", MaxGroupPackets * MaxPacketData, 2},
	} {
		data := make([]byte, tc.size)
		call := func() {
			if _, err := client.Call(2, route, data); err != nil {
				t.Fatal(err)
			}
		}
		drainPool(call)
		n := testing.AllocsPerRun(200, call)
		if n != tc.want {
			t.Errorf("%s: %.0f allocs per call, want %.0f", tc.name, n, tc.want)
		}
	}
}

// TestRTDeliverRouteAllocs pins DeliverRoute on the gw_rr shape: a
// 256-byte echo whose requests arrive with their return route as a
// viper.Route of four tokened hops, as livenet delivers it. It costs
// the 2 allocations TestRTCallAllocs' echo costs over Deliver: the
// server decodes the Route once into scratch, for the handler, its ack
// and its response, and allocates no []viper.Segment.
// The handler's ret and every route the server sends along are the
// segments the Route holds.
func TestRTDeliverRouteAllocs(t *testing.T) {
	ret := deliveredRoute(t, 4)
	want := ret.Segments(nil)
	var wrong atomic.Int64
	check := func(route []viper.Segment) {
		if len(route) != len(want) {
			wrong.Add(1)
			return
		}
		for i := range route {
			if !route[i].Equal(&want[i]) {
				wrong.Add(1)
			}
		}
	}
	route := []viper.Segment{{Port: 1}}
	var client, server *RT
	client = NewRT(1, CarrierFunc(func(_ []viper.Segment, pkt []byte) error {
		server.DeliverRoute(pkt, ret)
		return nil
	}), RTConfig{})
	server = NewRT(2, CarrierFunc(func(r []viper.Segment, pkt []byte) error {
		check(r)
		client.Deliver(pkt, route)
		return nil
	}), RTConfig{})
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	server.SetHandler(func(_ uint64, data []byte, r []viper.Segment) []byte {
		check(r)
		return data
	})
	data := make([]byte, 256)
	call := func() {
		if _, err := client.Call(2, route, data); err != nil {
			t.Fatal(err)
		}
	}
	drainPool(call)
	if n := testing.AllocsPerRun(200, call); n != 2 {
		t.Errorf("%.0f allocs per call, want 2", n)
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d routes differ from the delivered Route's segments", n)
	}
	if s := server.Stats(); s.AcksSent == 0 {
		t.Fatal("the server sent no ack along the Route")
	}
}

// TestRTServedRouteDecodedOnce pins that a served request's return
// route, delivered as a viper.Route, is decoded once per request group:
// the handler's ret, the route the ack goes along and the route the
// response goes along are the same segments, in the same backing array,
// and equal to the Route's decode.
func TestRTServedRouteDecodedOnce(t *testing.T) {
	ret := deliveredRoute(t, 4)
	want := ret.Segments(nil)
	route := []viper.Segment{{Port: 1}}
	// Each sees a borrowed slice, so the log keeps a copy of its
	// segments and the address of its first.
	type seen struct {
		what string
		segs []viper.Segment
		at   *viper.Segment
	}
	var mu sync.Mutex
	var log []seen
	record := func(what string, segs []viper.Segment) {
		mu.Lock()
		log = append(log, seen{what, slices.Clone(segs), &segs[0]})
		mu.Unlock()
	}
	var client, server *RT
	client = NewRT(1, CarrierFunc(func(_ []viper.Segment, pkt []byte) error {
		server.DeliverRoute(pkt, ret)
		return nil
	}), RTConfig{})
	server = NewRT(2, CarrierFunc(func(r []viper.Segment, pkt []byte) error {
		p, err := Decode(pkt)
		if err != nil {
			t.Error(err)
		}
		record(p.Kind.String(), r)
		client.Deliver(pkt, route)
		return nil
	}), RTConfig{})
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	server.SetHandler(func(_ uint64, data []byte, r []viper.Segment) []byte {
		record("handler", r)
		return data
	})
	if _, err := client.Call(2, route, []byte("decode once")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// A retransmitted request, on a slow run, is acked along its own
	// Route; the first ack is the one the served request sends.
	var kinds []string
	first := map[string]seen{}
	for _, s := range log {
		kinds = append(kinds, s.what)
		if _, ok := first[s.what]; !ok {
			first[s.what] = s
		}
	}
	for _, what := range []string{"ack", "handler", "response"} {
		s, ok := first[what]
		if !ok {
			t.Fatalf("server saw %v, want an ack, the handler and a response", kinds)
		}
		if !slices.EqualFunc(s.segs, want, func(a, b viper.Segment) bool { return a.Equal(&b) }) {
			t.Fatalf("%s route %v, want the Route's segments %v", what, s.segs, want)
		}
		if s.at != first["handler"].at {
			t.Fatalf("the handler and the %s see separate decodes of the Route (sequence %v)", what, kinds)
		}
	}
}

// deliveredRoute is the return route of a packet delivered over hops
// tokened router hops, as viper.DecodeDelivery hands it to a host.
func deliveredRoute(t *testing.T, hops int) viper.Route {
	t.Helper()
	p := viper.NewPacket([]viper.Segment{{Port: viper.PortLocal}}, []byte("request"))
	p.Trailer = []viper.Segment{{Port: viper.PortLocal}}
	for i := 0; i < hops; i++ {
		p.Trailer = append(p.Trailer, viper.Segment{Port: uint8(1 + i), PortToken: bytes.Repeat([]byte{byte(0xA0 + i)}, 24)})
	}
	b, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	_, _, ret, err := viper.DecodeDelivery(b, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ret
}

// drainPool runs a call whose answer keeps its request's pool buffer
// more often than internal/pool keeps idle buffers in a class, so the
// buffers earlier tests left there are used up and an allocation count
// taken next sees the steady state.
func drainPool(call func()) {
	for i := 0; i < 256; i++ {
		call()
	}
}

// TestRTStartAllocs pins the asynchronous form: without Call's copy of
// the response a 256-byte echo costs one allocation less, the request
// bytes its echo keeps.
func TestRTStartAllocs(t *testing.T) {
	client, _, route := directPair(t)
	data := make([]byte, 256)
	done := make(chan error, 1)
	complete := func(resp []byte, err error) {
		if err == nil && len(resp) != len(data) {
			err = errors.New("short echo")
		}
		done <- err
	}
	call := func() {
		if err := client.Start(2, route, data, complete); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	drainPool(call)
	n := testing.AllocsPerRun(200, call)
	if n != 1 {
		t.Errorf("%.0f allocs per call, want 1", n)
	}
}

// TestRTCompletionOutsideLock holds RT to its completion contract: done
// never runs under the endpoint's lock, so it may read Stats and start
// the next call, and every started call completes exactly once — with
// its response, or with ErrClosed once Close fails what is in flight.
func TestRTCompletionOutsideLock(t *testing.T) {
	client, server, route := directPair(t)
	release := make(chan struct{})
	server.SetHandler(func(_ uint64, data []byte, _ []viper.Segment) []byte {
		if len(data) > 0 && data[0] == 'b' {
			<-release // a request Close will find in flight
		}
		return data
	})
	const chain = 50
	var mu sync.Mutex
	completions := make(map[int]int)
	var errs []error
	finished := make(chan struct{})
	var next func(i int) func([]byte, error)
	next = func(i int) func([]byte, error) {
		return func(resp []byte, err error) {
			_ = client.Stats() // takes the lock done must not hold
			mu.Lock()
			completions[i]++
			if err != nil {
				errs = append(errs, err)
			}
			mu.Unlock()
			if i+1 == chain {
				close(finished)
				return
			}
			if err := client.Start(2, route, []byte{'a', byte(i)}, next(i+1)); err != nil {
				t.Errorf("Start from a completion: %v", err)
			}
		}
	}
	if err := client.Start(2, route, []byte{'a'}, next(0)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("a completion that starts the next call deadlocked")
	}
	// Calls the server holds, then Close: each fails with ErrClosed.
	const blocked = 8
	closed := make(chan error, blocked)
	for i := 0; i < blocked; i++ {
		if err := client.Start(2, route, []byte{'b', byte(i)}, func(_ []byte, err error) { closed <- err }); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool { return client.Stats().CallsStarted == chain+blocked })
	client.Close()
	close(release)
	if len(closed) != blocked {
		t.Fatalf("%d of %d in-flight calls completed by the time Close returned", len(closed), blocked)
	}
	for i := 0; i < blocked; i++ {
		if err := <-closed; !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight call ended with %v, want ErrClosed", err)
		}
	}
	if err := client.Start(2, route, nil, func([]byte, error) { t.Error("done ran for a refused Start") }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Start after Close = %v, want ErrClosed", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < chain; i++ {
		if completions[i] != 1 {
			t.Fatalf("call %d completed %d times", i, completions[i])
		}
	}
	if len(errs) > 0 {
		t.Fatalf("chained calls failed: %v", errs)
	}
	if s := client.Stats(); s.CallsCompleted != chain || s.CallsFailed != blocked {
		t.Fatalf("completed %d, failed %d; want %d and %d", s.CallsCompleted, s.CallsFailed, chain, blocked)
	}
}

// settleGoroutines waits up to 2 s for the goroutine count to fall to
// at most want, and fails with every goroutine's stack if it does not.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			stacks = stacks[:runtime.Stack(stacks, true)]
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), want, stacks)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestSequencerOrders(t *testing.T) {
	var s Sequencer
	const n = 64
	var mu sync.Mutex
	var order []uint32
	var wg sync.WaitGroup
	seqs := rand.New(rand.NewSource(4)).Perm(n)
	for _, seq := range seqs {
		wg.Add(1)
		go func(seq uint32) {
			defer wg.Done()
			if err := s.Admit(seq); err != nil {
				t.Errorf("Admit(%d): %v", seq, err)
				return
			}
			mu.Lock()
			order = append(order, seq)
			mu.Unlock()
			s.Done()
		}(uint32(seq))
	}
	wg.Wait()
	for i, seq := range order {
		if seq != uint32(i) {
			t.Fatalf("order[%d] = %d", i, seq)
		}
	}
	if s.Next() != n {
		t.Fatalf("Next = %d", s.Next())
	}
}

func TestSequencerReplay(t *testing.T) {
	var s Sequencer
	if err := s.Admit(0); err != nil {
		t.Fatal(err)
	}
	s.Done()
	if err := s.Admit(0); !errors.Is(err, ErrReplayed) {
		t.Fatalf("replay err = %v", err)
	}
}

func TestSequencerAbort(t *testing.T) {
	var s Sequencer
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		done <- s.Admit(5) // blocks: 0..4 not delivered
	}()
	time.Sleep(10 * time.Millisecond)
	s.Abort(boom)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("aborted Admit err = %v", err)
	}
	if err := s.Admit(0); !errors.Is(err, boom) {
		t.Fatalf("post-abort Admit err = %v", err)
	}
}
