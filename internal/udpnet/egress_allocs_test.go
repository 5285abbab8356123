package udpnet

import (
	"net"
	"testing"

	"repro/internal/livenet"
)

// TestEgressAllocs pins the tunnel's egress half: framing a tapped
// batch into the tunnel's buffer and writing it to the socket allocates
// nothing in steady state, whether the batch holds one frame or
// several, and a batch of equal frames is one send. The receive side of
// a delivery is not free — it keeps one owned return route (livenet's
// TestReceiveAllocs) — but nothing on the way to the socket needs to
// outlive the write. The peer is a bare socket the test drains itself,
// so no ingress or delivery work is counted.
func TestEgressAllocs(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	tun := tunnelFixture(t, 3, sink.LocalAddr().(*net.UDPAddr))
	buf := make([]byte, MaxDatagram)
	for _, n := range []int{1, 8} {
		batch := make([]livenet.RawFrame, n)
		for i := range batch {
			batch[i].Pkt = make([]byte, 1024)
		}
		sends := tun.sends.Load()
		step := func() {
			tun.egress(batch)
			for range batch {
				if n, err := sink.Read(buf); err != nil || n != HeaderLen+1024 {
					t.Fatalf("sink read %d bytes (%v), want %d", n, err, HeaderLen+1024)
				}
			}
		}
		for i := 0; i < 16; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
			t.Fatalf("egress of a batch of %d allocates %.2f times, want 0", n, allocs)
		}
		if (offload || n == 1) && tun.sends.Load()-sends != 16+201 {
			t.Fatalf("%d sends for %d batches of %d", tun.sends.Load()-sends, 16+201, n)
		}
	}
}

// tunnelFixture is a tunnel on link linkID with a real socket and no
// gateway: the test hands egress its batches itself, so every batch it
// sends is exactly the one it built.
func tunnelFixture(t testing.TB, linkID uint16, to *net.UDPAddr) *Tunnel {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return newTunnel(newBridge(conn), linkID, to)
}
