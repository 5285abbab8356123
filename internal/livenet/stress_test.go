package livenet

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/viper"
)

// TestStressFlapRace hammers the goroutine substrate: eight hosts on two
// routers send concurrently across a trunk that flaps up and down
// mid-flight. It is primarily a race-detector workload — every shared
// structure (link fault state, drop counters, router stats, handler
// tables) is exercised from many goroutines at once — but it also
// checks conservation: at quiesce, every packet was either delivered or
// counted by the trunk's fault-injection discard counter. It runs under
// both router partitions: the trunk is a fused link, then a ring pair.
func TestStressFlapRace(t *testing.T) {
	onBothPartitions(t, stressFlapRace)
}

func stressFlapRace(t *testing.T, newNetwork func(...NetworkOption) *Network) {
	const (
		hostsPerSide = 4
		pktsPerHost  = 100
		total        = 2 * hostsPerSide * pktsPerHost
	)

	n := newNetwork()
	defer n.Stop()
	r0 := n.NewRouter("R0")
	r1 := n.NewRouter("R1")
	trunk := n.Connect(r0, 1, r1, 1)

	// Hosts 0..3 on R0 ports 2..5, hosts 4..7 on R1 ports 2..5.
	var hosts []*Host
	for i := 0; i < 2*hostsPerSide; i++ {
		h := n.NewHost("h")
		r, port := r0, uint8(2+i)
		if i >= hostsPerSide {
			r, port = r1, uint8(2+i-hostsPerSide)
		}
		n.Connect(h, 1, r, port)
		hosts = append(hosts, h)
	}
	// route from host i to host j (always across the trunk): own
	// directive, trunk hop, peer's host port, endpoint.
	route := func(j int) []viper.Segment {
		return []viper.Segment{
			{Port: 1},
			{Port: 1},
			{Port: uint8(2 + j%hostsPerSide)},
			{Port: viper.PortLocal},
		}
	}

	var (
		mu        sync.Mutex
		perID     = make(map[uint64]int)
		delivered int
	)
	for _, h := range hosts {
		h.Handle(0, func(d Delivery) {
			if len(d.Data) < 8 {
				t.Error("short payload")
				return
			}
			id := binary.BigEndian.Uint64(d.Data[:8])
			mu.Lock()
			perID[id]++
			delivered++
			mu.Unlock()
		})
	}

	// Flapper: cut and restore the trunk every 2ms while senders run.
	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		down := false
		for {
			select {
			case <-stop:
				trunk.SetDown(false)
				return
			case <-time.After(2 * time.Millisecond):
				down = !down
				trunk.SetDown(down)
			}
		}
	}()

	var senders sync.WaitGroup
	for hi := range hosts {
		hi := hi
		senders.Add(1)
		go func() {
			defer senders.Done()
			peerBase := hostsPerSide // R0-side hosts target R1's side
			if hi >= hostsPerSide {
				peerBase = 0
			}
			for p := 0; p < pktsPerHost; p++ {
				data := make([]byte, 16)
				binary.BigEndian.PutUint64(data[:8], uint64(hi*pktsPerHost+p+1))
				dst := peerBase + (hi+p)%hostsPerSide
				if err := hosts[hi].Send(route(dst), data); err != nil {
					t.Errorf("host %d send %d: %v", hi, p, err)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	senders.Wait()
	close(stop)
	flapper.Wait()

	// Quiesce: the books balance when every in-flight frame has been
	// delivered or discarded.
	balanced := func() bool {
		mu.Lock()
		d := delivered
		mu.Unlock()
		drops := trunk.Dropped() + r0.Stats().TotalDrops() + r1.Stats().TotalDrops()
		return uint64(d)+drops == total
	}
	deadline := time.Now().Add(10 * time.Second)
	for !balanced() {
		if time.Now().After(deadline) {
			mu.Lock()
			d := delivered
			mu.Unlock()
			t.Fatalf("conservation never balanced: delivered=%d trunkDrops=%d routerDrops=%d total=%d",
				d, trunk.Dropped(), r0.Stats().TotalDrops()+r1.Stats().TotalDrops(), total)
		}
		time.Sleep(2 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for id, c := range perID {
		if c > 1 {
			t.Errorf("packet %d delivered %d times", id, c)
		}
	}
	if delivered == 0 {
		t.Error("nothing delivered; flapper should leave the trunk up half the time")
	}
}
