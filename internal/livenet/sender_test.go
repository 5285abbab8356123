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

// TestSendConcurrentRoutes drives one host's send path from many
// goroutines at once, each sending its own route, so seals of different
// routes interleave on the host. Every image the far host receives
// must equal the encoding of its route and payload built from scratch
// (viper.SealRoute and Packet.Encode), so no packet carries another
// goroutine's header. CI runs it repeatedly under -race.
func TestSendConcurrentRoutes(t *testing.T) {
	n := NewNetwork()
	t.Cleanup(n.Stop)
	src := n.NewHost("src")
	dst := n.NewHost("dst")
	n.Connect(src, 1, dst, 1)

	const senders, perSender = 8, 200
	var mu sync.Mutex
	var got [][]byte
	dst.SetRawHandler(func(pkt []byte) {
		mu.Lock()
		got = append(got, append([]byte(nil), pkt...))
		mu.Unlock()
	})

	// Sender g's route differs from the others' only in its token's
	// bytes (every token has the same length), its priority for g < 4,
	// and its length for odd g: routes alike in shape must not share a
	// header.
	routeOf := func(g int) []viper.Segment {
		route := []viper.Segment{
			{Port: 1},
			{Port: 7, Priority: viper.Priority(g % 4), PortToken: bytes.Repeat([]byte{byte(g)}, 4)},
		}
		if g%2 == 1 {
			route = append(route, viper.Segment{Port: 9, Flags: viper.FlagVNT})
		}
		return append(route, viper.Segment{Port: viper.PortLocal})
	}
	want := func(g int, payload []byte) []byte {
		carried := routeOf(g)[1:]
		if err := viper.SealRoute(carried); err != nil {
			t.Fatal(err)
		}
		p := viper.NewPacket(carried, payload)
		p.Trailer = []viper.Segment{{Port: viper.PortLocal}}
		b, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			route := routeOf(g)
			for i := 0; i < perSender; i++ {
				if err := src.Send(route, []byte{byte(g), byte(i), byte(i >> 8)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == senders*perSender
	})
	for _, img := range got {
		payload := img[len(img)-3-8:][:3] // origin trailer (4) and descriptor (4) follow
		if w := want(int(payload[0]), payload); !bytes.Equal(img, w) {
			t.Fatalf("sender %d packet %d arrived as\n%x\nwant\n%x", payload[0], int(payload[1])|int(payload[2])<<8, img, w)
		}
	}
}

// TestSendAfterSealError pins the send path's error case: a route that
// fails to seal is refused and its frame recycled, and the route sent
// before the failure must arrive intact when it is sent again, so a
// failed seal leaves nothing behind on the host.
func TestSendAfterSealError(t *testing.T) {
	src, wait := senderTopology(t)
	good := []viper.Segment{
		{Port: 1},
		{Port: 2, Flags: viper.FlagVNT, PortToken: []byte("good")},
		{Port: viper.PortLocal},
	}
	bad := []viper.Segment{
		{Port: 1},
		{Port: 2, Flags: viper.FlagVNT, PortToken: []byte("junk")},
		// A final segment whose header tags another VIPER segment cannot
		// be sealed.
		{Port: viper.PortLocal, PortInfo: []byte{0x88, 0xB5}},
	}
	payload := []byte("after-error")
	if err := src.Send(good, payload); err != nil {
		t.Fatal(err)
	}
	if err := src.Send(bad, payload); err == nil {
		t.Fatal("a route whose final segment continues was sent")
	}
	if err := src.Send(good, payload); err != nil {
		t.Fatal(err)
	}
	got := wait(2)
	if !bytes.Equal(got[0], got[1]) {
		t.Fatalf("the route sent after a failed seal arrived as\n%x\nwant\n%x", got[1], got[0])
	}
}
