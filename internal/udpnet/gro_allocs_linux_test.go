//go:build !race

// Under the race detector a GSO send and GRO read allocate once, so
// the exact zero below only holds in a normal build.

package udpnet

import (
	"net"
	"testing"
	"time"

	"repro/internal/livenet"
)

// TestGROReadAllocs pins the batched ingress half: one GRO-coalesced
// read, split into its datagrams and injected into livenet, allocates
// nothing, and neither does the GSO send that produced it.
func TestGROReadAllocs(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	rx := newBridge(conn) // no read loop: the test reads
	defer rx.Close()
	if err := enableGRO(conn); err != nil {
		t.Fatal(err)
	}
	netw := livenet.NewNetwork()
	defer netw.Stop()
	h := netw.NewHost("h")
	h.SetRawHandler(func([]byte) {})
	rxT, err := rx.Attach(netw, h, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	tx := tunnelFixture(t, 3, rx.Addr())

	const burst = 8
	batch := make([]livenet.RawFrame, burst)
	for i := range batch {
		batch[i].Pkt = make([]byte, 1024)
	}
	buf := make([]byte, MaxDatagram)
	oob := make([]byte, groOOBLen)
	var sent uint64
	step := func() {
		tx.egress(batch)
		sent += burst
		for reads := 0; rxT.decapsulated.Load() < sent; reads++ {
			if reads == burst {
				t.Fatalf("%d reads decapsulated %d of %d datagrams", reads, rxT.decapsulated.Load(), sent)
			}
			rx.read(buf, oob)
		}
	}
	// A lost datagram fails the test instead of blocking a read.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < 16; i++ {
		step()
	}
	reads := rx.groReads.Load()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("a GSO send and GRO read of %d datagrams allocate %.2f times, want 0", burst, allocs)
	}
	if rx.groReads.Load()-reads < 100 {
		t.Fatalf("%d of 101 reads were GRO-coalesced", rx.groReads.Load()-reads)
	}
}
