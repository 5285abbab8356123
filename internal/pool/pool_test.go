package pool

import (
	"sync"
	"testing"
)

func TestClassSelection(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, 0}, {1, 0}, {256, 0}, {257, 1}, {512, 1}, {1500, 3},
		{1 << 16, numClasses - 1}, {1<<16 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if classOf(100) != -1 {
		t.Error("classOf below min should reject")
	}
	if classOf(256) != 0 || classOf(511) != 0 || classOf(512) != 1 {
		t.Error("classOf rounds down to the largest class that fits")
	}
	// A buffer larger than the max class still lands in the max class.
	if classOf(1<<17) != numClasses-1 {
		t.Errorf("classOf(128K) = %d", classOf(1<<17))
	}
}

func TestGetCapacityAndRecycle(t *testing.T) {
	b := Get(1000)
	if len(b) != 0 || cap(b) < 1000 {
		t.Fatalf("Get(1000): len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, make([]byte, 777)...)
	Put(b)
	c := Get(1000)
	if cap(c) < 1000 || len(c) != 0 {
		t.Fatalf("recycled: len=%d cap=%d", len(c), cap(c))
	}
}

func TestSteadyStateIsAllocationFree(t *testing.T) {
	// Warm the class.
	Put(Get(1400))
	allocs := testing.AllocsPerRun(1000, func() {
		b := Get(1400)
		b = append(b, 0xAB)
		Put(b)
	})
	if allocs > 0 {
		t.Fatalf("Get/Put cycle allocates %.1f times per run, want 0", allocs)
	}
}

func TestOversizeFallsThrough(t *testing.T) {
	b := Get(1 << 20)
	if cap(b) < 1<<20 {
		t.Fatalf("oversize cap=%d", cap(b))
	}
	_, _, _, rejected := Stats()
	Put(b) // must not panic; dropped for the collector
	if _, _, _, r := Stats(); r != rejected+1 {
		t.Fatalf("oversize Put kept the buffer (rejected %d -> %d)", rejected, r)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := Get(600)
				b = append(b, byte(i))
				Put(b)
			}
		}()
	}
	wg.Wait()
}
