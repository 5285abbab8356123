package vmtp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/viper"
)

func TestWireRoundTrip(t *testing.T) {
	p := &Packet{
		Header: Header{
			Client: 0xDEADBEEFCAFE, Server: 0x1234, Txn: 42,
			Kind: KindResponse, PktIndex: 3, NPkts: 7, Flags: 1,
			Mask: 0b1011, TotalLen: 7000, Timestamp: 99999,
		},
		Data: []byte("payload bytes"),
	}
	b := p.Encode()
	if len(b) != HeaderLen+len(p.Data) {
		t.Fatalf("encoded %d bytes", len(b))
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != p.Header || !bytes.Equal(got.Data, p.Data) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestWireChecksumCatchesCorruption(t *testing.T) {
	p := &Packet{Header: Header{Client: 1, Server: 2, Txn: 3, Timestamp: 4}, Data: []byte("abcdef")}
	b := p.Encode()
	for i := 0; i < len(b); i++ {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x10
		if _, err := Decode(mut); err != ErrChecksum {
			t.Fatalf("corruption at %d: err = %v", i, err)
		}
	}
	// Truncation (Sirpent's oversize handling) must also be caught.
	if _, err := Decode(b[:len(b)-2]); err != ErrChecksum {
		t.Fatalf("truncation err = %v", err)
	}
	if _, err := Decode(b[:10]); err != ErrShort {
		t.Fatalf("short err = %v", err)
	}
}

// TestDecodeAllocs pins Decode at the Packet and its copied data: the
// checksum is verified in place, without a scratch copy of the packet.
func TestDecodeAllocs(t *testing.T) {
	b := (&Packet{Header: Header{Client: 1, Server: 2, NPkts: 1}, Data: make([]byte, MaxPacketData)}).Encode()
	if n := testing.AllocsPerRun(100, func() { Decode(b) }); n > 2 {
		t.Fatalf("Decode allocates %.0f times, want 2", n)
	}
}

// TestDecodeIntoAllocs pins the decode RT.Deliver runs on every arrival:
// verifying and parsing into a caller's Packet value, with Data
// aliasing the frame, allocates nothing. What an arrival does cost is
// elsewhere: the pooled copy of its data, and the owned return route the
// host delivered with it, which RT keeps per request group and per
// cached response.
func TestDecodeIntoAllocs(t *testing.T) {
	b := (&Packet{Header: Header{Client: 1, Server: 2, NPkts: 1}, Data: make([]byte, MaxPacketData)}).Encode()
	var p Packet
	if n := testing.AllocsPerRun(100, func() { p.decodeInto(b) }); n != 0 {
		t.Fatalf("decodeInto allocates %.0f times, want 0", n)
	}
}

// FuzzDecode holds the VMTP decoder to its contract on hostile input:
// it never panics, a packet it accepts re-encodes byte-identically, and
// the aliasing decodeInto agrees with Decode on every input.
func FuzzDecode(f *testing.F) {
	f.Add((&Packet{Header: Header{Client: 1, Server: 2, Txn: 3, NPkts: 1, TotalLen: 4, Timestamp: 5}, Data: []byte("data")}).Encode())
	f.Add((&Packet{Header: Header{Client: 1, Server: 2, Txn: 3, Kind: KindAck, NPkts: 32, Mask: 0xFFFF}}).Encode())
	f.Add((&Packet{Header: Header{Kind: KindRequest, Flags: FlagProbe}}).Encode()[:HeaderLen-1])
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		var q Packet
		if qerr := q.decodeInto(b); qerr != err {
			t.Fatalf("decodeInto err = %v, Decode err = %v", qerr, err)
		}
		if err != nil {
			return
		}
		if q.Header != p.Header || !bytes.Equal(q.Data, p.Data) {
			t.Fatalf("decodeInto = %+v, Decode = %+v", q, *p)
		}
		// Re-encoding behind another packet's bytes, as a flush lays a
		// step out, must leave them alone and reproduce b.
		if enc := p.appendEncoded([]byte{0xAA}); enc[0] != 0xAA || !bytes.Equal(enc[1:], b) {
			t.Fatalf("re-encoding differs:\n got %x\nwant aa%x", enc, b)
		}
	})
}

func TestPropertyWireRoundTrip(t *testing.T) {
	f := func(client, server uint64, txn uint32, kind, idx, n, flags uint8, mask, total uint32, ts uint32, data []byte) bool {
		p := &Packet{Header: Header{
			Client: client, Server: server, Txn: txn, Kind: Kind(kind % 3),
			PktIndex: idx, NPkts: n, Flags: flags, Mask: mask,
			TotalLen: total, Timestamp: clock.Timestamp(ts),
		}, Data: data}
		got, err := Decode(p.Encode())
		return err == nil && got.Header == p.Header && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentChunking(t *testing.T) {
	cases := []struct {
		len, maxData, wantN int
	}{
		{0, 1024, 1},
		{1, 1024, 1},
		{1024, 1024, 1},
		{1025, 1024, 2},
		{32 * 1024, 1024, 32},
	}
	for _, c := range cases {
		msg := make([]byte, c.len)
		for i := range msg {
			msg[i] = byte(i)
		}
		chunks, err := Segment(msg, c.maxData)
		if err != nil {
			t.Fatalf("len %d: %v", c.len, err)
		}
		if len(chunks) != c.wantN {
			t.Fatalf("len %d: %d chunks, want %d", c.len, len(chunks), c.wantN)
		}
		// Reassemble using the receiver's offset rule.
		out := make([]byte, c.len)
		chunk := ChunkSize(c.len, len(chunks))
		for i, ch := range chunks {
			copy(out[i*chunk:], ch)
		}
		if !bytes.Equal(out, msg) {
			t.Fatalf("len %d: offset rule broke reassembly", c.len)
		}
	}
	if _, err := Segment(make([]byte, 33*1024), 1024); err != ErrGroupTooBig {
		t.Fatalf("oversize err = %v", err)
	}
}

// fixture: two hosts joined by a router over p2p links, with VMTP
// endpoints and optional alternate path through a second router.
//
//	      R1
//	     /  \
//	hA--+    +--hB
//	     \  /
//	      R2
type fixture struct {
	eng      *sim.Engine
	hA, hB   *router.Host
	r1, r2   *router.Router
	client   *Endpoint
	server   *Endpoint
	l1a, l1b *netsim.P2PLink // hA-R1, R1-hB
	l2a, l2b *netsim.P2PLink // hA-R2, R2-hB
}

func newFixture(t testing.TB, ccfg, scfg Config) *fixture {
	t.Helper()
	f := &fixture{eng: sim.NewEngine(23)}
	f.hA = router.NewHost(f.eng, "hA")
	f.hB = router.NewHost(f.eng, "hB")
	f.r1 = router.New(f.eng, "R1", router.Config{})
	f.r2 = router.New(f.eng, "R2", router.Config{})

	attach := func(link *netsim.P2PLink, a netsim.Node, ap uint8, b netsim.Node, bp uint8) {
		pa, pb := link.Attach(a, ap, b, bp)
		switch n := a.(type) {
		case *router.Host:
			n.AttachPort(pa)
		case *router.Router:
			n.AttachPort(pa)
		}
		switch n := b.(type) {
		case *router.Host:
			n.AttachPort(pb)
		case *router.Router:
			n.AttachPort(pb)
		}
	}
	mk := func() *netsim.P2PLink { return netsim.NewP2PLink(f.eng, 10e6, 50*sim.Microsecond) }
	f.l1a, f.l1b, f.l2a, f.l2b = mk(), mk(), mk(), mk()
	attach(f.l1a, f.hA, 1, f.r1, 1)
	attach(f.l1b, f.r1, 2, f.hB, 1)
	attach(f.l2a, f.hA, 2, f.r2, 1)
	attach(f.l2b, f.r2, 2, f.hB, 2)

	ckA := clock.New(f.eng, 0, 0)
	ckB := clock.New(f.eng, 0, 0)
	f.client = NewEndpoint(f.eng, f.hA, ckA, 0xC11E47, 1, ccfg)
	f.server = NewEndpoint(f.eng, f.hB, ckB, 0x5E12E12, 1, scfg)
	return f
}

// routes returns the two alternate routes hA -> hB (via R1, via R2),
// terminating at the server's host endpoint 1.
func (f *fixture) routes() [][]viper.Segment {
	via := func(iface uint8) []viper.Segment {
		return []viper.Segment{
			{Port: iface, Flags: viper.FlagVNT},
			{Port: 2, Flags: viper.FlagVNT},
			{Port: 1}, // host endpoint 1 (the server's)
		}
	}
	return [][]viper.Segment{via(1), via(2)}
}

func TestCallResponse(t *testing.T) {
	f := newFixture(t, Config{}, Config{})
	f.server.SetHandler(func(from uint64, data []byte) []byte {
		if from != f.client.ID() {
			t.Errorf("handler from = %x", from)
		}
		return append([]byte("echo:"), data...)
	})
	var got []byte
	f.eng.Schedule(0, func() {
		f.client.Call(f.server.ID(), f.routes(), []byte("ping"), func(resp []byte, err error) {
			if err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			got = resp
		})
	})
	f.eng.Run()
	if !bytes.Equal(got, []byte("echo:ping")) {
		t.Fatalf("resp = %q", got)
	}
	if f.client.Stats.CallsCompleted != 1 {
		t.Fatalf("CallsCompleted = %d", f.client.Stats.CallsCompleted)
	}
	if f.client.RTT(f.server.ID()) == 0 {
		t.Fatal("no RTT estimate recorded")
	}
}

func TestLargeMessagesBothWays(t *testing.T) {
	f := newFixture(t, Config{}, Config{})
	req := make([]byte, 10*1024)
	for i := range req {
		req[i] = byte(i * 3)
	}
	f.server.SetHandler(func(from uint64, data []byte) []byte {
		if !bytes.Equal(data, req) {
			t.Error("request corrupted in packet-group transfer")
		}
		resp := make([]byte, 20*1024)
		for i := range resp {
			resp[i] = byte(i * 5)
		}
		return resp
	})
	var got []byte
	f.eng.Schedule(0, func() {
		f.client.Call(f.server.ID(), f.routes(), req, func(resp []byte, err error) {
			if err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			got = resp
		})
	})
	f.eng.Run()
	if len(got) != 20*1024 {
		t.Fatalf("resp len = %d", len(got))
	}
	for i := range got {
		if got[i] != byte(i*5) {
			t.Fatalf("resp corrupted at %d", i)
		}
	}
}

func TestSelectiveRetransmissionOnLoss(t *testing.T) {
	f := newFixture(t, Config{BaseTimeout: 20 * sim.Millisecond, GapAckDelay: 2 * sim.Millisecond},
		Config{GapAckDelay: 2 * sim.Millisecond})
	// 20% loss on the forward path via R1.
	f.l1a.AB.SetLossRate(0.2)
	f.l1b.AB.SetLossRate(0.2)
	f.server.SetHandler(func(from uint64, data []byte) []byte { return []byte("ok") })
	done := 0
	f.eng.Schedule(0, func() {
		f.client.Call(f.server.ID(), f.routes(), make([]byte, 16*1024), func(resp []byte, err error) {
			if err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			done++
		})
	})
	f.eng.Run()
	if done != 1 {
		t.Fatal("call never completed despite retransmission")
	}
	st := f.client.Stats
	if st.SelectiveResends == 0 && st.Retransmissions == 0 {
		t.Fatal("no retransmissions despite 20% loss on a 16-packet group")
	}
}

// TestUnsendableResponseAcked has a synchronous handler answer with
// more than one group can carry: the response is dropped, and the
// served request group is recycled within the step, yet the full-group
// ack must still reach the client, which then probes instead of
// retransmitting until its deadline.
func TestUnsendableResponseAcked(t *testing.T) {
	f := newFixture(t, Config{CallTimeout: sim.Second}, Config{})
	f.server.SetHandler(func(uint64, []byte) []byte { return make([]byte, MaxGroupPackets*MaxPacketData+1) })
	var err error
	f.eng.Schedule(0, func() {
		f.client.Call(f.server.ID(), f.routes()[:1], []byte("q"), func(_ []byte, e error) { err = e })
	})
	f.eng.Run()
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("call ended with %v, want ErrCallTimeout", err)
	}
	if s := f.client.Stats; s.Retransmissions != 0 || f.server.Stats.AcksSent != 1 {
		t.Fatalf("client retransmitted %d times, server sent %d acks; want 0 and 1", s.Retransmissions, f.server.Stats.AcksSent)
	}
}

func TestRouteFailover(t *testing.T) {
	f := newFixture(t, Config{BaseTimeout: 10 * sim.Millisecond, MaxRetries: 2}, Config{})
	f.server.SetHandler(func(from uint64, data []byte) []byte { return []byte("alive") })
	// Kill the primary path entirely.
	f.l1a.SetDown(true)
	var got []byte
	var doneAt sim.Time
	f.eng.Schedule(0, func() {
		f.client.Call(f.server.ID(), f.routes(), []byte("hello?"), func(resp []byte, err error) {
			if err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			got = resp
			doneAt = f.eng.Now()
		})
	})
	f.eng.Run()
	if !bytes.Equal(got, []byte("alive")) {
		t.Fatalf("resp = %q", got)
	}
	if f.client.Stats.RouteFailovers != 1 {
		t.Fatalf("RouteFailovers = %d, want 1", f.client.Stats.RouteFailovers)
	}
	// Failover cost: MaxRetries timeouts then success on route 2.
	if doneAt < 20*sim.Millisecond {
		t.Fatalf("done at %v, too fast for 2 timeouts", doneAt)
	}
}

func TestRouteAdvisorSkipsDeadRoute(t *testing.T) {
	f := newFixture(t, Config{BaseTimeout: 10 * sim.Millisecond, MaxRetries: 2}, Config{})
	f.server.SetHandler(func(from uint64, data []byte) []byte { return []byte("ok") })
	f.l1a.SetDown(true)
	routes := f.routes()
	// The advisor knows route 0 (via interface 1) is dead.
	f.client.SetRouteAdvisor(func(r []viper.Segment) bool {
		return len(r) > 0 && r[0].Port != 1
	})
	var doneAt sim.Time = -1
	f.eng.Schedule(0, func() {
		f.client.Call(f.server.ID(), routes, []byte("x"), func(resp []byte, err error) {
			if err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			doneAt = f.eng.Now()
		})
	})
	f.eng.Run()
	if doneAt < 0 {
		t.Fatal("call failed")
	}
	// No timeout was needed: the advisor skipped straight to route 2.
	if doneAt >= 10*sim.Millisecond {
		t.Fatalf("done at %v; advisor did not avoid the timeout", doneAt)
	}
	if f.client.Stats.AdvisorySkips != 1 {
		t.Fatalf("AdvisorySkips = %d", f.client.Stats.AdvisorySkips)
	}
	if f.client.Stats.RouteFailovers != 0 {
		t.Fatalf("RouteFailovers = %d, want 0 (skip, not failover)", f.client.Stats.RouteFailovers)
	}
}

func TestRouteAdvisorKeepsLastRoute(t *testing.T) {
	// If the advisor rejects everything, the last route is still tried
	// (better to attempt than to give up without sending).
	f := newFixture(t, Config{BaseTimeout: 5 * sim.Millisecond, MaxRetries: 1}, Config{})
	f.server.SetHandler(func(from uint64, data []byte) []byte { return []byte("ok") })
	f.client.SetRouteAdvisor(func(r []viper.Segment) bool { return false })
	ok := false
	f.eng.Schedule(0, func() {
		f.client.Call(f.server.ID(), f.routes(), []byte("x"), func(resp []byte, err error) {
			ok = err == nil
		})
	})
	f.eng.Run()
	if !ok {
		t.Fatal("call failed despite a working last route")
	}
}

func TestAllRoutesFailed(t *testing.T) {
	f := newFixture(t, Config{BaseTimeout: 5 * sim.Millisecond, MaxRetries: 1}, Config{})
	f.l1a.SetDown(true)
	f.l2a.SetDown(true)
	var gotErr error
	f.eng.Schedule(0, func() {
		f.client.Call(f.server.ID(), f.routes(), []byte("x"), func(resp []byte, err error) { gotErr = err })
	})
	f.eng.Run()
	if gotErr == nil {
		t.Fatal("expected failure")
	}
	if f.client.Stats.CallsFailed != 1 {
		t.Fatalf("CallsFailed = %d", f.client.Stats.CallsFailed)
	}
}

func TestDuplicateRequestServedFromCache(t *testing.T) {
	f := newFixture(t, Config{BaseTimeout: 10 * sim.Millisecond}, Config{})
	handled := 0
	f.server.SetHandler(func(from uint64, data []byte) []byte {
		handled++
		return []byte("once")
	})
	// Lose ALL reverse traffic for a while so the response dies and the
	// client retransmits the request.
	f.l1b.BA.SetLossRate(1.0)
	f.l1a.BA.SetLossRate(1.0)
	f.eng.Schedule(25*sim.Millisecond, func() {
		f.l1b.BA.SetLossRate(0)
		f.l1a.BA.SetLossRate(0)
	})
	done := 0
	f.eng.Schedule(0, func() {
		f.client.Call(f.server.ID(), f.routes()[:1], []byte("q"), func(resp []byte, err error) {
			if err != nil {
				t.Errorf("Call: %v", err)
			}
			done++
		})
	})
	f.eng.Run()
	if done != 1 {
		t.Fatal("call did not complete")
	}
	if handled != 1 {
		t.Fatalf("handler ran %d times; at-most-once broken", handled)
	}
	if f.server.Stats.DupRequests == 0 {
		t.Fatal("no duplicate suppression observed")
	}
}

func TestStaleTimestampDiscarded(t *testing.T) {
	f := newFixture(t, Config{}, Config{MPL: 2 * sim.Second})
	f.server.SetHandler(func(from uint64, data []byte) []byte { return []byte("no") })
	// Run the clock forward so "old" timestamps are representable.
	f.eng.RunUntil(10 * sim.Second)
	old := &Packet{Header: Header{
		Client: f.client.ID(), Server: f.server.ID(), Txn: 7,
		Kind: KindRequest, NPkts: 1,
		Timestamp: clock.Timestamp(1000), // t=1s, now 10s: 9s old > 2s MPL
	}, Data: []byte("ancient")}
	f.server.deliver(&router.Delivery{Data: old.Encode(), Pkt: &viper.Packet{}})
	if f.server.Stats.StaleDrops != 1 {
		t.Fatalf("StaleDrops = %d", f.server.Stats.StaleDrops)
	}
}

func TestMisdeliveryDetected(t *testing.T) {
	f := newFixture(t, Config{}, Config{})
	wrong := &Packet{Header: Header{
		Client: 1, Server: 0xBAD, Txn: 1, Kind: KindRequest, NPkts: 1,
		Timestamp: f.server.clk.Timestamp(),
	}}
	f.server.deliver(&router.Delivery{Data: wrong.Encode(), Pkt: &viper.Packet{}})
	if f.server.Stats.Misdelivered != 1 {
		t.Fatalf("Misdelivered = %d", f.server.Stats.Misdelivered)
	}
}

func TestCorruptedPacketDiscarded(t *testing.T) {
	f := newFixture(t, Config{}, Config{})
	p := &Packet{Header: Header{Client: 1, Server: f.server.ID(), NPkts: 1, Timestamp: 5}}
	b := p.Encode()
	b[5] ^= 0xFF
	f.server.deliver(&router.Delivery{Data: b, Pkt: &viper.Packet{}})
	if f.server.Stats.ChecksumDrops != 1 {
		t.Fatalf("ChecksumDrops = %d", f.server.Stats.ChecksumDrops)
	}
}

func TestPacingSpacesPackets(t *testing.T) {
	f := newFixture(t, Config{PacingGap: 3 * sim.Millisecond}, Config{GapAckDelay: 50 * sim.Millisecond})
	var arrivals []sim.Time
	f.server.SetHandler(func(from uint64, data []byte) []byte { return nil })
	// Spy on host deliveries via a second endpoint-level wrapper is
	// overkill; instead check the link's transmission count over time.
	f.eng.Schedule(0, func() {
		f.client.Call(f.server.ID(), f.routes()[:1], make([]byte, 4*1024), func([]byte, error) {})
	})
	// Sample link business over time (offset half a millisecond so the
	// samples land inside the ~0.87ms transmission windows).
	for i := 500 * sim.Microsecond; i < 20*sim.Millisecond; i += sim.Millisecond {
		i := i
		f.eng.At(i, func() {
			if f.l1a.AB.Current() != nil {
				arrivals = append(arrivals, i)
			}
		})
	}
	f.eng.Run()
	// 4 packets at 3ms spacing: the link must be active across at least
	// 9ms of the window, not all at once. (A 1KB packet takes ~0.85ms.)
	if len(arrivals) < 3 {
		t.Fatalf("link busy at %d sample points, want spread transmissions: %v", len(arrivals), arrivals)
	}
	span := arrivals[len(arrivals)-1] - arrivals[0]
	if span < 8*sim.Millisecond {
		t.Fatalf("transmissions span %v, want paced over >=8ms", span)
	}
}

func TestErrNoRoutes(t *testing.T) {
	f := newFixture(t, Config{}, Config{})
	if err := f.client.Call(1, nil, nil, nil); err != ErrNoRoutes {
		t.Fatalf("err = %v", err)
	}
}

func TestKindStringer(t *testing.T) {
	if KindRequest.String() != "request" || KindResponse.String() != "response" || KindAck.String() != "ack" || Kind(9).String() != "?" {
		t.Fatal("Kind.String broken")
	}
}
