package livenet

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/viper"
)

// TestBatchedPingPong is the batched substrate's end-to-end smoke: a
// two-router chain forwards a request on ring pipes, the receiver
// replies along the mirrored return route, and both directions complete
// — the same scenario TestLiveRequestResponseAcrossTwoRouters proves on
// the scalar substrate.
func TestBatchedPingPong(t *testing.T) {
	goroutinesReturn(t)
	n := NewNetwork(WithBatching())
	defer n.Stop()

	src := n.NewHost("src")
	r1 := n.NewRouter("r1")
	r2 := n.NewRouter("r2")
	dst := n.NewHost("dst")
	n.Connect(src, 1, r1, 1)
	n.Connect(r1, 2, r2, 1)
	n.Connect(r2, 2, dst, 1)

	var replied atomic.Bool
	var got atomic.Value
	dst.Handle(0, func(d Delivery) {
		got.Store(append([]byte(nil), d.Data...))
		if err := dst.Send(d.ReturnRoute, []byte("pong")); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	src.Handle(0, func(d Delivery) {
		if bytes.Equal(d.Data, []byte("pong")) {
			replied.Store(true)
		}
	})

	route := []viper.Segment{
		{Port: 1}, // src directive (p2p)
		{Port: 2}, // r1
		{Port: 2}, // r2
		{Port: viper.PortLocal},
	}
	if err := src.Send(route, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, replied.Load)
	if g, _ := got.Load().([]byte); !bytes.Equal(g, []byte("ping")) {
		t.Fatalf("dst got %q", g)
	}
	if s := r1.Stats(); s.Forwarded != 2 {
		t.Fatalf("r1 forwarded %d, want 2 (request + reply)", s.Forwarded)
	}
}
