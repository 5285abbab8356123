package udpnet

import (
	"net"
	"runtime"
	"testing"

	"repro/internal/livenet"
	"repro/internal/trace"
)

// TestEgressAllocs pins the tunnel's egress half: framing one frame into
// a pooled datagram, queuing it, writing it to the socket and recycling
// it allocates nothing in steady state. The receive side of a delivery
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
}
