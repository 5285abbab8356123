//go:build !race

// The race detector slows the relays enough that timer-driven
// retransmissions add packets beyond the window, so the exact zeros
// below only hold in a normal build.

package daemon

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/stats"
)

// TestGatewayUploadBurstFits uploads 4 MiB per stream through the
// standalone gateway chain. With one stream nothing may overflow: the
// relay sends Window groups of 32 packets unpaced, and every link
// StartGateway builds must queue that whole burst, so a link one window
// too shallow shows up as queue-full drops at the routers and
// retransmissions at the ingress.
//
// The depth covers one stream's burst, not the sum over streams: two
// concurrent uploads put twice the burst on the same links and do
// overflow. That case only has to arrive intact (retransmission
// recovers the drops); its counts are logged, since pacing the senders
// (ROADMAP item 3b), not deeper rings, is what removes them.
func TestGatewayUploadBurstFits(t *testing.T) {
	t.Run("streams=1", func(t *testing.T) {
		drops, retx := uploadThroughGateway(t, 1)
		for i, n := range drops {
			if n != 0 {
				t.Errorf("R%d: %d queue-full drops", i, n)
			}
		}
		if retx != 0 {
			t.Errorf("ingress: %d retransmissions", retx)
		}
	})
	t.Run("streams=2", func(t *testing.T) {
		drops, retx := uploadThroughGateway(t, 2)
		t.Logf("queue-full drops per router %v, ingress retransmissions %d", drops, retx)
	})
}

// uploadThroughGateway sends 4 MiB over each of streams concurrent
// SOCKS connections through StartGateway{Hops: 4}, waits for the sink
// to read every byte, and returns each router's queue-full drops and
// the ingress's retransmissions.
func uploadThroughGateway(t *testing.T, streams int) (drops []uint64, retx uint64) {
	const size = 4 << 20
	gs, err := StartGateway(GatewayConfig{Hops: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()

	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	received := make(chan error, streams)
	go func() {
		for i := 0; i < streams; i++ {
			c, err := sink.Accept()
			if err != nil {
				received <- err
				continue
			}
			go func() {
				_, err := io.ReadFull(c, make([]byte, size))
				c.Close()
				received <- err
			}()
		}
	}()

	for i := 0; i < streams; i++ {
		conn, err := gateway.DialSocks(gs.Addr(), sink.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		go conn.Write(make([]byte, size))
	}
	deadline := time.After(60 * time.Second)
	for i := 0; i < streams; i++ {
		select {
		case err := <-received:
			if err != nil {
				t.Fatalf("sink: %v", err)
			}
		case <-deadline:
			t.Fatal("upload did not complete")
		}
	}

	for _, r := range gs.routers {
		drops = append(drops, r.Stats().Drops[stats.DropQueueFull])
	}
	return drops, gs.IngressStats().VMTP.Retransmissions
}
