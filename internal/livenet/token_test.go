package livenet

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/viper"
)

// onBothBatchShapes runs fn under two batch shapes, each under both
// router partitions (onBothPartitions). "scalar" paces the sender: pace
// polls until the frame just sent has been decided (the caller names the
// router counter that moves), so every frame is decided in a batch of
// its own and token state must carry across batch boundaries. "batched"
// sends back to back (pace returns at once), so repeats of one token
// can share a batch.
func onBothBatchShapes(t *testing.T, fn func(t *testing.T, newNetwork func(...NetworkOption) *Network, pace func(decided func() bool))) {
	for _, shape := range []struct {
		name string
		pace func(func() bool)
	}{{"scalar", settle}, {"batched", func(func() bool) {}}} {
		t.Run(shape.name, func(t *testing.T) {
			onBothPartitions(t, func(t *testing.T, newNetwork func(...NetworkOption) *Network) {
				fn(t, newNetwork, shape.pace)
			})
		})
	}
}

// frontedRouter wires src → r0 → r1 and returns r1, the router under
// test: r0 forwards on its port 2 into r1's port 1, so every case
// crosses one router-to-router link, fused or a ring pair by partition.
// A route reaches r1 with the prefix {Port: 1}, {Port: 2}.
func frontedRouter(n *Network, src *Host, opts ...LinkOption) *Router {
	r0 := n.NewRouter("r0")
	r1 := n.NewRouter("r1")
	n.Connect(src, 1, r0, 1)
	n.Connect(r0, 2, r1, 1, opts...)
	return r1
}

// settle polls decided for up to 5 s and returns either way: a frame
// that is never decided fails the test's own final count instead, so
// settle is safe to call off the test goroutine.
func settle(decided func() bool) {
	for deadline := time.Now().Add(5 * time.Second); !decided() && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
}

// TestLiveTokenAuthorization exercises the §2.2 token check on the live
// substrate: a guarded port denies tokenless packets (recording the
// denial in the flight recorder), admits and charges token-bearing
// ones, and surfaces the charge through AccountTotals and the
// TokenAuthorized counter. Every send here already waits for its
// verdict, so both shapes decide one frame per batch.
func TestLiveTokenAuthorization(t *testing.T) {
	onBothBatchShapes(t, func(t *testing.T, newNetwork func(...NetworkOption) *Network, _ func(func() bool)) {
		fr := ledger.NewFlightRecorder(64)
		n := newNetwork(WithFlightRecorder(fr))
		defer n.Stop()

		src := n.NewHost("src")
		r1 := frontedRouter(n, src)
		dst := n.NewHost("dst")
		n.Connect(r1, 2, dst, 1)

		auth := token.NewAuthority([]byte("live-key"))
		r1.SetTokenAuthority(auth)
		r1.RequireToken(2)

		var delivered atomic.Uint64
		dst.Handle(0, func(d Delivery) { delivered.Add(1) })

		// Tokenless packet on a guarded port: denied and recorded.
		bare := []viper.Segment{{Port: 1}, {Port: 2}, {Port: 2}, {Port: viper.PortLocal}}
		if err := src.Send(bare, []byte("no-token")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return r1.Stats().Drops[stats.DropTokenDenied] == 1 })

		// Valid token: forwarded, counted, charged to account 42.
		tok := auth.Issue(token.Spec{Account: 42, Port: 2})
		tokened := []viper.Segment{{Port: 1}, {Port: 2}, {Port: 2, PortToken: tok}, {Port: viper.PortLocal}}
		if err := src.Send(tokened, []byte("tokened")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return delivered.Load() == 1 })
		// The router publishes its counters after it has handed the
		// batch on, so the delivery can run first.
		waitFor(t, func() bool { return r1.Stats().TokenAuthorized == 1 })
		u := r1.TokenCache().AccountTotals()[42]
		if u.Packets != 1 || u.Bytes == 0 {
			t.Fatalf("account 42 usage = %+v, want 1 packet with bytes", u)
		}

		var denials int
		for _, ev := range fr.Events() {
			if ev.Kind == ledger.KindTokenDenied && ev.Node == "r1" {
				denials++
			}
		}
		if denials != 1 {
			t.Fatalf("flight recorder has %d token-denied events, want 1\n%s", denials, fr.Format())
		}
	})
}

// TestLiveTokenForgedDenied presents a token MACed under the wrong key:
// the synchronous verification caches the negative verdict and every
// presentation drops.
func TestLiveTokenForgedDenied(t *testing.T) {
	onBothBatchShapes(t, func(t *testing.T, newNetwork func(...NetworkOption) *Network, pace func(func() bool)) {
		n := newNetwork()
		defer n.Stop()

		src := n.NewHost("src")
		r1 := frontedRouter(n, src)
		dst := n.NewHost("dst")
		n.Connect(r1, 2, dst, 1)

		r1.SetTokenAuthority(token.NewAuthority([]byte("real-key")))
		forged := token.NewAuthority([]byte("wrong-key")).Issue(token.Spec{Account: 7, Port: 2})

		route := []viper.Segment{{Port: 1}, {Port: 2}, {Port: 2, PortToken: forged}, {Port: viper.PortLocal}}
		for i := 1; i <= 3; i++ {
			if err := src.Send(route, []byte("forged")); err != nil {
				t.Fatal(err)
			}
			pace(func() bool { return r1.Stats().Drops[stats.DropTokenDenied] == uint64(i) })
		}
		waitFor(t, func() bool { return r1.Stats().Drops[stats.DropTokenDenied] == 3 })
		if s := r1.Stats(); s.Forwarded != 0 || s.TokenAuthorized != 0 {
			t.Fatalf("forged token forwarded: %+v", s)
		}
		// The forged account never appears in the billing totals.
		if _, ok := r1.TokenCache().AccountTotals()[7]; ok {
			t.Fatal("forged token's account reached AccountTotals")
		}
		// Exactly one full verification: the negative verdict is cached.
		if v, _ := r1.TokenCache().Metrics(); v != 1 {
			t.Fatalf("verifies = %d, want 1 (negative caching)", v)
		}
	})
}

// TestLiveTokenConcurrentAccounts races token-charged forwarding from
// several hosts against ledger sweeps of AccountTotals, the shape the
// ledger collector runs in production. Run under -race in CI.
func TestLiveTokenConcurrentAccounts(t *testing.T) {
	onBothBatchShapes(t, func(t *testing.T, newNetwork func(...NetworkOption) *Network, pace func(func() bool)) {
		n := newNetwork()
		defer n.Stop()

		// Every host enters at r0, which forwards on port 9 into r1, the
		// router under test.
		r0 := n.NewRouter("r0")
		r1 := n.NewRouter("r1")
		n.Connect(r0, 9, r1, 1, WithDepth(256))
		auth := token.NewAuthority([]byte("conc-key"))
		r1.SetTokenAuthority(auth)

		dst := n.NewHost("dst")
		// Deep enough for every packet in the test: the router drops
		// DropQueueFull on a full output queue (as the simulator's outport
		// does), and this test's subject is token accounting, not loss.
		n.Connect(r1, 9, dst, 1, WithDepth(256))
		r1.RequireToken(9)

		var delivered atomic.Uint64
		dst.Handle(0, func(d Delivery) { delivered.Add(1) })

		const hosts, pkts = 4, 50
		for h := 0; h < hosts; h++ {
			src := n.NewHost(fmt.Sprintf("src%d", h))
			n.Connect(src, 1, r0, uint8(1+h))
			account := uint32(100 + h)
			tok := auth.Issue(token.Spec{Account: account, Port: 9})
			route := []viper.Segment{{Port: 1}, {Port: 9}, {Port: 9, PortToken: tok}, {Port: viper.PortLocal}}
			go func() {
				for i := uint64(1); i <= pkts; i++ {
					_ = src.Send(route, []byte("payload"))
					pace(func() bool { return r1.TokenCache().AccountTotals()[account].Packets == i })
				}
			}()
		}
		stop := make(chan struct{})
		go func() { // concurrent ledger sweeps
			for {
				select {
				case <-stop:
					return
				default:
					r1.TokenCache().AccountTotals()
				}
			}
		}()
		waitFor(t, func() bool { return delivered.Load() == hosts*pkts })
		close(stop)

		totals := r1.TokenCache().AccountTotals()
		var sum uint64
		for h := 0; h < hosts; h++ {
			u := totals[uint32(100+h)]
			if u.Packets != pkts {
				t.Fatalf("account %d: %d packets, want %d", 100+h, u.Packets, pkts)
			}
			sum += u.Packets
		}
		// The router publishes its counters after it has handed the
		// batch on, so the last deliveries can run first.
		waitFor(t, func() bool { return r1.Stats().TokenAuthorized == sum })
	})
}

// TestLiveLinkFlapRecorded checks that SetDown transitions — and only
// transitions — land in the flight recorder. No frame is sent, so the
// two shapes run the same steps.
func TestLiveLinkFlapRecorded(t *testing.T) {
	onBothBatchShapes(t, func(t *testing.T, newNetwork func(...NetworkOption) *Network, _ func(func() bool)) {
		fr := ledger.NewFlightRecorder(16)
		n := newNetwork(WithFlightRecorder(fr))
		defer n.Stop()

		a := n.NewHost("a")
		b := n.NewHost("b")
		l := n.Connect(a, 1, b, 1)

		l.SetDown(true)
		l.SetDown(true) // no transition, no event
		l.SetDown(false)

		evs := fr.Events()
		if len(evs) != 2 {
			t.Fatalf("recorded %d events, want 2:\n%s", len(evs), fr.Format())
		}
		for i, want := range []string{"down", "up"} {
			if evs[i].Kind != ledger.KindLinkFlap || evs[i].Reason != want || evs[i].Node != "a<->b" {
				t.Fatalf("event %d = %s, want %s flap on a<->b", i, evs[i], want)
			}
		}
	})
}
