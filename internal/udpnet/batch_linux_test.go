package udpnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/livenet"
	"repro/internal/trace"
)

// frameOf is a tapped frame that egress frames as an n-byte datagram
// naming it: the packet's first two bytes are i, the rest is byte(i).
func frameOf(i, n int, traced bool) livenet.RawFrame {
	f := livenet.RawFrame{Pkt: bytes.Repeat([]byte{byte(i)}, n-HeaderLen)}
	if traced {
		f.Ctx = trace.Context{ID: uint64(i) + 1, Budget: 4}
		f.Pkt = f.Pkt[tracedPrefixLen:]
	}
	binary.BigEndian.PutUint16(f.Pkt, uint16(i))
	return f
}

// batchOf is one untraced frame of each datagram size, numbered from 0.
func batchOf(sizes ...int) []livenet.RawFrame {
	var b []livenet.RawFrame
	for i, n := range sizes {
		b = append(b, frameOf(i, n, false))
	}
	return b
}

// sink is a plain loopback socket whose reader collects datagrams.
type sink struct {
	conn *net.UDPConn
	mu   sync.Mutex
	got  [][]byte
}

func newSink(t *testing.T) *sink {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{conn: conn}
	done := make(chan struct{})
	t.Cleanup(func() { conn.Close(); <-done })
	go func() {
		defer close(done)
		buf := make([]byte, MaxDatagram)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			s.mu.Lock()
			s.got = append(s.got, bytes.Clone(buf[:n]))
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *sink) addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// wait returns the first n datagrams the sink received.
func (s *sink) wait(t *testing.T, n int) [][]byte {
	t.Helper()
	var got [][]byte
	waitUntil(t, "datagrams at the sink", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		got = s.got
		return len(got) >= n
	})
	return got[:n]
}

func waitUntil(t *testing.T, what string, f func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !f(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
	}
}

func sameDatagrams(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d datagrams, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("datagram %d: got %d bytes %x..., want %d bytes %x...", i, len(got[i]), got[i][:12], len(want[i]), want[i][:12])
		}
	}
}

// sameFrames checks that each datagram carries its frame of want on
// link: the packet intact, and a traced frame's context one hop on.
func sameFrames(t *testing.T, got [][]byte, link uint16, want []livenet.RawFrame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d datagrams, want %d", len(got), len(want))
	}
	for i, w := range want {
		f, bad := parseFrame(got[i])
		var ctx trace.Context
		if w.Ctx.CanHop() {
			ctx = w.Ctx.Next()
		}
		if bad != nil || f.link != link || f.ctx != ctx || !bytes.Equal(f.payload, w.Pkt) {
			t.Fatalf("datagram %d (%d bytes, %v): link %d context %+v payload %x..., want link %d context %+v payload %x...",
				i, len(got[i]), bad, f.link, f.ctx, f.payload[:min(4, len(f.payload))], link, ctx, w.Pkt[:4])
		}
	}
}

// TestRunEnd pins the run rule: equal sizes coalesce, a shorter
// datagram ends its run, a longer one starts the next, and a run holds
// at most maxBatch datagrams and maxRunBytes bytes.
func TestRunEnd(t *testing.T) {
	sizes := func(ns ...int) [][]byte {
		var b [][]byte
		for _, n := range ns {
			b = append(b, make([]byte, n))
		}
		return b
	}
	same := func(n, size int) []int {
		var ns []int
		for i := 0; i < n; i++ {
			ns = append(ns, size)
		}
		return ns
	}
	for _, c := range []struct {
		name  string
		sizes []int
		runs  []int
	}{
		{"equal", []int{100, 100, 100}, []int{3}},
		{"shorter ends", []int{100, 100, 60, 100}, []int{3, 1}},
		{"longer starts", []int{100, 100, 200, 200}, []int{2, 2}},
		{"lone", []int{100}, []int{1}},
		{"count cap", same(maxBatch+6, 100), []int{maxBatch, 6}},
		{"byte cap", same(maxBatch, 1100), []int{maxRunBytes / 1100, maxBatch - maxRunBytes/1100}},
		{"shorter past the byte cap", append(same(maxRunBytes/1000, 1000), 500), []int{maxRunBytes / 1000, 1}},
	} {
		b := sizes(c.sizes...)
		var runs []int
		for i := 0; i < len(b); {
			j := runEnd(b, i)
			runs = append(runs, j-i)
			i = j
		}
		if !equalInts(runs, c.runs) {
			t.Errorf("%s: runs %v, want %v", c.name, runs, c.runs)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFlushRuns sends batches through a real socket: each run is one
// send call, the peer receives every datagram intact and in order, and
// Encapsulated counts datagrams, not sends.
func TestFlushRuns(t *testing.T) {
	s := newSink(t)
	tun := tunnelFixture(t, 3, s.addr())
	var want []livenet.RawFrame
	var sends uint64
	for _, c := range []struct {
		sizes []int
		sends uint64
	}{
		{[]int{300, 300, 300, 200, 300, 500, 500, 100}, 3},
		{[]int{300}, 1},
		{make([]int, maxBatch+6), 2},
		{make([]int, maxBatch), 2},
	} {
		if c.sizes[0] == 0 {
			size := 100
			if len(c.sizes) == maxBatch {
				size = 1100 // past maxRunBytes
			}
			for i := range c.sizes {
				c.sizes[i] = size
			}
		}
		b := batchOf(c.sizes...)
		want = append(want, b...)
		tun.egress(b)
		sends += c.sends
		if got := tun.Stats(); got.Sends != sends || got.Encapsulated != uint64(len(want)) || got.SendErrors != 0 {
			t.Fatalf("after sizes %v: stats %+v, want %d sends and %d encapsulated", c.sizes, got, sends, len(want))
		}
		sameFrames(t, s.wait(t, len(want)), 3, want)
	}
	if !tun.bridge.gso.Load() {
		t.Fatal("GSO turned off by sends the kernel took")
	}
}

// TestFlushTracedCount mixes traced and untraced datagrams in one
// batch: TracedSent counts the traced ones, whichever runs they ride.
func TestFlushTracedCount(t *testing.T) {
	s := newSink(t)
	tun := tunnelFixture(t, 3, s.addr())
	var b []livenet.RawFrame
	traced := 0
	for i := 0; i < 20; i++ {
		tr := i%3 != 0
		if tr {
			traced++
		}
		b = append(b, frameOf(i, 400, tr))
	}
	tun.egress(b)
	st := tun.Stats()
	if st.Encapsulated != 20 || st.TracedSent != uint64(traced) {
		t.Fatalf("stats %+v, want 20 encapsulated, %d traced", st, traced)
	}
	if st.Sends >= 20 {
		t.Fatalf("%d sends for 20 datagrams of one size: nothing batched", st.Sends)
	}
	sameFrames(t, s.wait(t, 20), 3, b)
}

// TestGSOFallback makes the kernel refuse GSO: a socket with
// SO_NO_CHECK takes plain sends but fails UDP_SEGMENT ones with EINVAL.
// The run then goes out datagram by datagram with no send error, and
// the bridge stops trying GSO. A run whose resend fails too (no remote
// yet) counts one send error per datagram and leaves GSO on.
func TestGSOFallback(t *testing.T) {
	s := newSink(t)
	tun := tunnelFixture(t, 3, nil)
	tun.egress(batchOf(300, 300, 300, 300))
	if st := tun.Stats(); st.SendErrors != 4 || st.Sends != 0 || !tun.bridge.gso.Load() {
		t.Fatalf("no remote: stats %+v, GSO %v; want 4 send errors and GSO on", st, tun.bridge.gso.Load())
	}

	tun.SetRemote(s.addr())
	rc, err := tun.bridge.conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	rc.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1) })
	if err != nil {
		t.Fatal(err)
	}
	want := batchOf(300, 300, 300, 200)
	tun.egress(want)
	if st := tun.Stats(); st.Encapsulated != 4 || st.Sends != 4 || st.SendErrors != 4 || tun.PeerLost() {
		t.Fatalf("refused GSO: stats %+v, peer lost %v; want 4 datagrams in 4 sends, no new send error", st, tun.PeerLost())
	}
	if tun.bridge.gso.Load() {
		t.Fatal("GSO still on after the kernel refused it")
	}
	b := batchOf(300, 300)
	want = append(want, b...)
	tun.egress(b)
	if st := tun.Stats(); st.Encapsulated != 6 || st.Sends != 6 {
		t.Fatalf("GSO off: stats %+v, want 6 datagrams in 6 sends", st)
	}
	sameFrames(t, s.wait(t, 6), 3, want)
}

// TestGSOSendErrorsDeclarePeerLoss fails a GSO send on the path, not
// in the kernel's GSO: the remote is an IPv6 address the bridge's IPv4
// socket cannot reach. The resend fails datagram by datagram, so the
// peer-loss detector sees each failure and declares the peer lost, as
// unbatched sends would; GSO stays on, and the next run that goes out
// as one send restores the peer.
func TestGSOSendErrorsDeclarePeerLoss(t *testing.T) {
	s := newSink(t)
	tun := tunnelFixture(t, 3, &net.UDPAddr{IP: net.IPv6loopback, Port: s.addr().Port})
	tun.egress(batchOf(300, 300, 300, 300))
	if st := tun.Stats(); st.SendErrors != 4 || st.Sends != 0 || !tun.PeerLost() || !tun.bridge.gso.Load() {
		t.Fatalf("unreachable remote: stats %+v, peer lost %v, GSO %v; want 4 send errors, peer lost, GSO on",
			st, tun.PeerLost(), tun.bridge.gso.Load())
	}
	tun.SetRemote(s.addr())
	want := batchOf(300, 300, 300, 300)
	tun.egress(want)
	if st := tun.Stats(); st.Sends != 1 || st.Encapsulated != 4 || tun.PeerLost() {
		t.Fatalf("reachable again: stats %+v, peer lost %v; want 4 datagrams in 1 send, peer restored", st, tun.PeerLost())
	}
	sameFrames(t, s.wait(t, 4), 3, want)
}

// TestBridgeGROBurst sends mixed-size bursts on two links into a real
// bridge. Past its first groAfter datagrams the bridge reads with
// UDP_GRO on, and splits the coalesced reads: every datagram arrives
// intact and in order on its link, and each link decapsulates what its
// sender encapsulated.
func TestBridgeGROBurst(t *testing.T) {
	rx, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	netw := livenet.NewNetwork()
	defer netw.Stop()

	const links = 2
	var (
		mu   sync.Mutex
		got  [links][][]byte
		want [links][][]byte
		tx   [links]*Tunnel
		rxT  [links]*Tunnel
	)
	for l := 0; l < links; l++ {
		h := netw.NewHost(fmt.Sprintf("h%d", l+1))
		h.SetRawHandler(func(pkt []byte) {
			mu.Lock()
			got[l] = append(got[l], bytes.Clone(pkt))
			mu.Unlock()
		})
		if rxT[l], err = rx.Attach(netw, h, 1, uint16(l+1)); err != nil {
			t.Fatal(err)
		}
		tx[l] = tunnelFixture(t, uint16(l+1), rx.Addr())
	}
	send := func(l int, sizes ...int) {
		b := batchOf(sizes...)
		for _, f := range b {
			want[l] = append(want[l], f.Pkt)
		}
		tx[l].egress(b)
	}
	for i := 0; i < groAfter; i++ {
		send(i%links, 100)
	}
	arrived := func() {
		for l := 0; l < links; l++ {
			waitUntil(t, "the burst at the far hosts", func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(got[l]) >= len(want[l])
			})
		}
	}
	arrived()
	waitUntil(t, "UDP_GRO on", rx.gro.Load)
	// One round at a time: a round fits the far hosts' inner link rings,
	// which would drop a longer burst the read loop injects faster than
	// the hosts drain.
	for round := 0; round < 20; round++ {
		for l := 0; l < links; l++ {
			send(l, 1000, 1000, 1000, 700, 1200, 1200, 64, 64, 64, 64, 900)
		}
		arrived()
	}
	for l := 0; l < links; l++ {
		mu.Lock()
		sameDatagrams(t, got[l], want[l])
		mu.Unlock()
		if enc, dec := tx[l].Stats().Encapsulated, rxT[l].Stats().Decapsulated; enc != dec {
			t.Fatalf("link %d: encapsulated %d, decapsulated %d", l+1, enc, dec)
		}
	}
	if rx.groReads.Load() == 0 {
		t.Fatal("no read was GRO-coalesced")
	}
	if rx.DecodeErrors() != 0 {
		t.Fatalf("%d decode errors", rx.DecodeErrors())
	}
}

// TestTruncatedReadRejected reads a datagram into a buffer too small
// for it: the kernel flags the read MSG_TRUNC, and the bridge counts it
// as a decode error instead of demuxing what fit.
func TestTruncatedReadRejected(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	rx := newBridge(conn) // no read loop: the test reads
	defer rx.Close()
	netw := livenet.NewNetwork()
	defer netw.Stop()
	rxT, err := rx.Attach(netw, netw.NewHost("h"), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	tx := tunnelFixture(t, 3, rx.Addr())
	tx.egress(batchOf(300))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rx.read(make([]byte, 100), make([]byte, groOOBLen))
	if rx.DecodeErrors() != 1 || rxT.Stats().Decapsulated != 0 || rxT.Stats().DecodeErrors != 0 {
		t.Fatalf("truncated read: bridge decode errors %d, tunnel %+v; want 1 bridge decode error", rx.DecodeErrors(), rxT.Stats())
	}
}
