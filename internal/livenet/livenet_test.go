package livenet

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataplane"
	"repro/internal/ethernet"
	"repro/internal/viper"
)

func ethHdr(dst, src uint64, typ uint16) []byte {
	return ethernet.Header{
		Dst:  ethernet.AddrFromUint64(dst),
		Src:  ethernet.AddrFromUint64(src),
		Type: typ,
	}.Encode()
}

// waitFor polls until f returns true or the deadline passes.
func waitFor(t *testing.T, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// twoRouterChain wires src — r1 — r2 — dst, installs an echo at dst
// that answers every request with "pong" along its return route, and
// returns the src→dst route plus a counter of pongs received at src.
func twoRouterChain(t *testing.T, n *Network) (src *Host, r1 *Router, route []viper.Segment, pongs *atomic.Uint64) {
	t.Helper()
	src = n.NewHost("src")
	r1 = n.NewRouter("r1")
	r2 := n.NewRouter("r2")
	dst := n.NewHost("dst")
	n.Connect(src, 1, r1, 1)
	n.Connect(r1, 2, r2, 1)
	n.Connect(r2, 2, dst, 1)

	dst.Handle(0, func(d Delivery) {
		if !bytes.Equal(d.Data, []byte("ping")) {
			t.Errorf("dst got %q", d.Data)
		}
		if err := dst.Send(d.ReturnRoute.Segments(nil), []byte("pong")); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	pongs = new(atomic.Uint64)
	src.Handle(0, func(d Delivery) {
		if bytes.Equal(d.Data, []byte("pong")) {
			pongs.Add(1)
		}
	})
	route = []viper.Segment{
		{Port: 1}, // src directive (p2p)
		{Port: 2}, // r1
		{Port: 2}, // r2
		{Port: viper.PortLocal},
	}
	return src, r1, route, pongs
}

func TestLiveRequestResponseAcrossTwoRouters(t *testing.T) {
	goroutinesReturn(t)
	n := NewNetwork()
	defer n.Stop()
	src, r1, route, pongs := twoRouterChain(t, n)

	if err := src.Send(route, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return pongs.Load() == 1 })
	if s := r1.Stats(); s.Forwarded != 2 {
		t.Fatalf("r1 forwarded %d, want 2 (request + reply)", s.Forwarded)
	}
}

// TestBatchedPingPong sends a full batch of pings back to back, so the
// routers drain and flush multi-frame batches in both directions at
// once. Every direction of every link carries exactly one ring's worth,
// so nothing may drop and every ping must come back.
func TestBatchedPingPong(t *testing.T) {
	goroutinesReturn(t)
	n := NewNetwork()
	defer n.Stop()
	src, r1, route, pongs := twoRouterChain(t, n)

	for i := 0; i < DefaultLinkDepth; i++ {
		if err := src.Send(route, []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return pongs.Load() == DefaultLinkDepth })
	if s := r1.Stats(); s.Forwarded != 2*DefaultLinkDepth || s.TotalDrops() != 0 {
		t.Fatalf("r1 counters %v, want %d forwarded and no drops", s, 2*DefaultLinkDepth)
	}
}

func TestLiveEthernetHeaderSwap(t *testing.T) {
	// Frames carry explicit Ethernet headers; the reply must come back
	// with swapped addresses, proving the per-hop header surgery.
	n := NewNetwork()
	defer n.Stop()
	src := n.NewHost("src")
	r := n.NewRouter("r")
	dst := n.NewHost("dst")
	n.Connect(src, 1, r, 1)
	n.Connect(r, 2, dst, 1)

	var replied atomic.Bool
	dst.Handle(0, func(d Delivery) {
		// The return route's router segment must carry the swapped
		// header for the first hop.
		found := false
		ret := d.ReturnRoute.Segments(nil)
		for _, s := range ret {
			if len(s.PortInfo) == ethernet.HeaderLen {
				h, err := ethernet.Decode(s.PortInfo)
				if err != nil {
					t.Errorf("decode: %v", err)
					continue
				}
				if h.Dst == ethernet.AddrFromUint64(0xA) && h.Src == ethernet.AddrFromUint64(0x1) {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("return route lacks swapped arrival header: %+v", ret)
		}
		dst.Send(ret, []byte("ok"))
	})
	src.Handle(0, func(d Delivery) { replied.Store(true) })

	route := []viper.Segment{
		{Port: 1, PortInfo: ethHdr(0x1, 0xA, viper.EtherTypeVIPER)}, // src -> r
		{Port: 2, PortInfo: ethHdr(0xB, 0x2, viper.EtherTypeVIPER)}, // r -> dst
		{Port: viper.PortLocal},
	}
	if err := src.Send(route, []byte("with-headers")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, replied.Load)
}

func TestLiveByteSurgeryMatchesCodec(t *testing.T) {
	// dataplane.AppendTrailerSegment must produce exactly what Encode
	// would.
	route := []viper.Segment{
		{Port: 5, Flags: viper.FlagVNT},
		{Port: viper.PortLocal},
	}
	pkt := viper.NewPacket(route, []byte("data data"))
	pkt.Trailer = []viper.Segment{{Port: 9}}
	b, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Strip segment 1 and append a return segment, both ways.
	seg, rest, err := viper.DecodeSegment(b)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Port != 5 {
		t.Fatalf("first segment port %d", seg.Port)
	}
	ret := viper.Segment{Port: 7, Priority: 3}
	got, err := dataplane.AppendTrailerSegment(rest, &ret)
	if err != nil {
		t.Fatal(err)
	}

	want := pkt.Clone()
	want.Route = want.Route[1:]
	want.Trailer = append(want.Trailer, ret)
	wantB, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantB) {
		t.Fatalf("byte surgery diverges from codec:\n got %x\nwant %x", got, wantB)
	}
	// Count bumped.
	if c := binary.BigEndian.Uint16(got[len(got)-4 : len(got)-2]); c != 2 {
		t.Fatalf("trailer count = %d", c)
	}
}

// TestLiveRouterLocalDelivery sends a packet whose route ends at a
// router's own stack: the router counts it Local and recycles it.
func TestLiveRouterLocalDelivery(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	src := n.NewHost("src")
	r := n.NewRouter("r")
	n.Connect(src, 1, r, 1)
	route := []viper.Segment{
		{Port: 1},
		{Port: viper.PortLocal}, // terminates at the router
	}
	if err := src.Send(route, []byte("to router")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return r.Stats().Local == 1 })
	if s := r.Stats(); s.Forwarded != 0 || s.TotalDrops() != 0 {
		t.Fatalf("counters %v, want one local delivery only", s)
	}
}

func TestLiveTreeMulticast(t *testing.T) {
	// A tree segment fans out at the goroutine router, all on real wire
	// bytes; every leaf gets an independent copy and an independent
	// return route.
	n := NewNetwork()
	defer n.Stop()
	src := n.NewHost("src")
	r := n.NewRouter("r")
	n.Connect(src, 1, r, 1)
	var got [3]atomic.Uint64
	var echoed atomic.Uint64
	for i := 0; i < 3; i++ {
		i := i
		d := n.NewHost("leaf")
		n.Connect(r, uint8(2+i), d, 1)
		d.Handle(0, func(dl Delivery) {
			if bytes.Equal(dl.Data, []byte("fanout")) {
				got[i].Add(1)
				d.Send(dl.ReturnRoute.Segments(nil), []byte("echo"))
			}
		})
	}
	src.Handle(0, func(dl Delivery) {
		if bytes.Equal(dl.Data, []byte("echo")) {
			echoed.Add(1)
		}
	})
	var branches [][]viper.Segment
	for p := uint8(2); p <= 4; p++ {
		branches = append(branches, []viper.Segment{
			{Port: p, Flags: viper.FlagVNT},
			{Port: viper.PortLocal},
		})
	}
	tree, err := viper.TreeSegment(0, branches)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Send([]viper.Segment{{Port: 1}, tree}, []byte("fanout")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return got[0].Load() == 1 && got[1].Load() == 1 && got[2].Load() == 1 && echoed.Load() == 3
	})
}

func TestLiveBadPortDropped(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	src := n.NewHost("src")
	r := n.NewRouter("r")
	n.Connect(src, 1, r, 1)
	route := []viper.Segment{
		{Port: 1},
		{Port: 99, Flags: viper.FlagVNT},
		{Port: viper.PortLocal},
	}
	if err := src.Send(route, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return r.Stats().TotalDrops() == 1 })
}

func TestLiveConcurrentClients(t *testing.T) {
	// Many goroutine hosts hammer one server through one router; every
	// transaction must complete with intact data. Run with -race.
	n := NewNetwork()
	defer n.Stop()
	r := n.NewRouter("r")
	server := n.NewHost("server")
	n.Connect(r, 100, server, 1)

	var served atomic.Uint64
	server.Handle(0, func(d Delivery) {
		resp := append([]byte("ack:"), d.Data...)
		if err := server.Send(d.ReturnRoute.Segments(nil), resp); err != nil {
			t.Errorf("server send: %v", err)
			return
		}
		served.Add(1)
	})

	const nClients = 8
	const perClient = 50
	var done atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		c := c
		h := n.NewHost("client")
		n.Connect(h, 1, r, uint8(1+c))
		route := []viper.Segment{
			{Port: 1},
			{Port: 100, Flags: viper.FlagVNT},
			{Port: viper.PortLocal},
		}
		want := []byte{byte(c)}
		resp := make(chan struct{}, perClient)
		h.Handle(0, func(d Delivery) {
			if bytes.Equal(d.Data, append([]byte("ack:"), want...)) {
				done.Add(1)
				resp <- struct{}{}
			}
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Transactional: one outstanding request per client, as a
			// VMTP-style caller would behave.
			for i := 0; i < perClient; i++ {
				if err := h.Send(route, want); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				select {
				case <-resp:
				case <-time.After(5 * time.Second):
					t.Errorf("client %d: no response to request %d", c, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return done.Load() == nClients*perClient })
}

func TestNetworkStopIdempotent(t *testing.T) {
	n := NewNetwork()
	n.NewRouter("r")
	n.NewHost("h")
	n.Stop()
	n.Stop()
}

// onBothPartitions runs fn under each router partition. "fused" is
// NewNetwork's default: one worker runs all of a network's routers, so
// a router-to-router link hands batches over in place. "split"
// (SplitRouters) gives every router a worker of its own, so every link
// is a ring pair with doorbells.
func onBothPartitions(t *testing.T, fn func(t *testing.T, newNetwork func(...NetworkOption) *Network)) {
	t.Run("fused", func(t *testing.T) { fn(t, NewNetwork) })
	t.Run("split", func(t *testing.T) {
		fn(t, func(opts ...NetworkOption) *Network {
			n := NewNetwork(opts...)
			SplitRouters(n)
			return n
		})
	})
}

// goroutinesReturn asserts, after the test body and its deferred Stop
// have run, that the process is back to the goroutine count it had when
// called — before NewNetwork. Stop's WaitGroup releases a hair before
// each goroutine has fully exited, hence the short poll. The two-router
// chain tests call it.
func goroutinesReturn(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				stacks := make([]byte, 1<<16)
				stacks = stacks[:runtime.Stack(stacks, true)]
				t.Fatalf("%d goroutines after Stop, %d before NewNetwork:\n%s", runtime.NumGoroutine(), before, stacks)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
