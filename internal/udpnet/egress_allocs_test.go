package udpnet

import (
	"net"
	"runtime"
	"testing"

	"repro/internal/livenet"
	"repro/internal/trace"
)

// TestEgressAllocs pins the tunnel's egress half: framing frames into
// pooled datagrams, queuing them, writing them to the socket and
// recycling them allocates nothing in steady state, whether the writer
// wakes for one datagram or drains a batch of them. The receive side of a delivery
// is not free — it keeps one owned return route (livenet's
// TestReceiveAllocs) — but nothing on the way to the socket needs to
// outlive the write. The peer is a bare socket the test drains itself,
// so no ingress or delivery work is counted.
func TestEgressAllocs(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	netw := livenet.NewNetwork()
	defer netw.Stop()
	tun, err := b.Attach(netw, netw.NewRouter("r"), 2, 3, WithRemote(sink.LocalAddr().(*net.UDPAddr)))
	if err != nil {
		t.Fatal(err)
	}

	pkt := make([]byte, 1024)
	buf := make([]byte, MaxDatagram)
	var sent uint64
	step := func() {
		sent++
		tun.egress(pkt, trace.Context{})
		for tun.encapsulated.Load() < sent {
			runtime.Gosched()
		}
		if n, err := sink.Read(buf); err != nil || n != HeaderLen+len(pkt) {
			t.Fatalf("sink read %d bytes (%v), want %d", n, err, HeaderLen+len(pkt))
		}
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("egress of one datagram allocates %.2f times, want 0", allocs)
	}

	// A batch, drained and flushed as the writer does it; the sink reads
	// each datagram, however many sends carried them.
	const batch = 8
	bt := writerFixture(t, 4, sink.LocalAddr().(*net.UDPAddr))
	sends := bt.sends.Load()
	batchStep := func() {
		for i := 0; i < batch; i++ {
			bt.egress(pkt, trace.Context{})
		}
		bt.flush(bt.drain(<-bt.out))
		for i := 0; i < batch; i++ {
			if n, err := sink.Read(buf); err != nil || n != HeaderLen+len(pkt) {
				t.Fatalf("sink read %d bytes (%v), want %d", n, err, HeaderLen+len(pkt))
			}
		}
	}
	for i := 0; i < 16; i++ {
		batchStep()
	}
	if allocs := testing.AllocsPerRun(200, batchStep); allocs != 0 {
		t.Fatalf("egress of a batch of %d datagrams allocates %.2f times, want 0", batch, allocs)
	}
	if offload && bt.sends.Load()-sends != 16+201 {
		t.Fatalf("%d sends for %d batches", bt.sends.Load()-sends, 16+201)
	}
}

// writerFixture is a tunnel on link linkID with a real socket and no
// goroutines: the test fills t.out with egress and drives drain and
// flush itself, so every batch it sends is exactly the one it built.
func writerFixture(t *testing.T, linkID uint16, to *net.UDPAddr) *Tunnel {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return newTunnel(newBridge(conn), linkID, tunnelConfig{depth: 2 * maxBatch, remote: to})
}
