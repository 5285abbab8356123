package livenet

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/viper"
)

// senderTopology is one router between two hosts, returning the source,
// the raw frames collected at the sink, and a wait-for-count helper.
func senderTopology(t *testing.T) (*Host, func(n int) [][]byte) {
	t.Helper()
	n := NewNetwork()
	t.Cleanup(n.Stop)
	r := n.NewRouter("r")
	src := n.NewHost("src")
	dst := n.NewHost("dst")
	n.Connect(src, 1, r, 1)
	n.Connect(r, 2, dst, 1)

	var mu sync.Mutex
	var got [][]byte
	dst.SetRawHandler(func(pkt []byte) {
		mu.Lock()
		got = append(got, append([]byte(nil), pkt...))
		mu.Unlock()
	})
	wait := func(want int) [][]byte {
		deadline := time.Now().Add(2 * time.Second)
		for {
			mu.Lock()
			n := len(got)
			mu.Unlock()
			if n >= want {
				mu.Lock()
				defer mu.Unlock()
				return got
			}
			if time.Now().After(deadline) {
				t.Fatalf("sink saw %d frames, want %d", n, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return src, wait
}

// TestSenderMatchesSend pins the prepared path's wire format: a packet
// injected through a Sender must arrive at the far host byte-identical
// to the same route and payload going through Host.Send — same segment
// consumption, same trailer growth, same payload position.
func TestSenderMatchesSend(t *testing.T) {
	src, wait := senderTopology(t)
	route := []viper.Segment{
		{Port: 1},
		{Port: 2, Flags: viper.FlagVNT},
		{Port: viper.PortLocal},
	}
	payload := []byte("prepared-vs-encode")
	if err := src.Send(route, payload); err != nil {
		t.Fatal(err)
	}
	snd, err := src.NewSender(route, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if err := snd.Send(payload); err != nil {
		t.Fatal(err)
	}
	got := wait(2)
	if !bytes.Equal(got[0], got[1]) {
		t.Fatalf("prepared frame diverges from encoded frame\nencode:   %x\nprepared: %x", got[0], got[1])
	}
}

// TestSenderPayloadStamping checks that consecutive sends with
// different payloads of the prepared length land each payload in its
// own frame, and that a wrong-length payload is refused.
func TestSenderPayloadStamping(t *testing.T) {
	src, wait := senderTopology(t)
	route := []viper.Segment{
		{Port: 1},
		{Port: 2, Flags: viper.FlagVNT},
		{Port: viper.PortLocal},
	}
	snd, err := src.NewSender(route, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := snd.Send([]byte("too long")); err == nil {
		t.Fatal("wrong-length payload accepted")
	}
	payloads := [][]byte{[]byte("aaaa"), []byte("bbbb"), []byte("cccc")}
	for _, p := range payloads {
		if err := snd.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	got := wait(len(payloads))
	for i, p := range payloads {
		if !bytes.Contains(got[i], p) {
			t.Fatalf("frame %d does not carry payload %q: %x", i, p, got[i])
		}
	}
}
