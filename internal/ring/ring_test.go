package ring

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestCapacityRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {16, 16}, {17, 32}, {1000, 1024},
	} {
		if got := New[int](tc.ask).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestPushPopSingle(t *testing.T) {
	r := New[int](4)
	if _, ok := r.TryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !r.TryPush(i) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if r.TryPush(99) {
		t.Fatal("push succeeded on full ring")
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok := r.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("pop from drained ring succeeded")
	}
}

// TestBatchPartialFill pins the partial-batch contract: PushBatch takes
// what fits and reports it, PopBatch returns what is there, and order is
// preserved across arbitrary partial operations.
func TestBatchPartialFill(t *testing.T) {
	r := New[int](8)
	in := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if n := r.PushBatch(in); n != 8 {
		t.Fatalf("PushBatch into empty cap-8 ring = %d, want 8", n)
	}
	dst := make([]int, 3)
	if n := r.PopBatch(dst); n != 3 || dst[0] != 0 || dst[2] != 2 {
		t.Fatalf("PopBatch = %d %v", n, dst)
	}
	// 5 occupied, 3 free: a 12-element push takes exactly 3.
	if n := r.PushBatch(in[8:]); n != 3 {
		t.Fatalf("PushBatch into 3-free ring = %d, want 3", n)
	}
	got := make([]int, 0, 8)
	buf := make([]int, 5)
	for {
		n := r.PopBatch(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	want := []int{3, 4, 5, 6, 7, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

// TestPopZeroesSlots pins the memory discipline: popped slots must not
// retain references, or pooled frame buffers would be pinned by the ring
// long after the frame moved on.
func TestPopZeroesSlots(t *testing.T) {
	r := New[*int](4)
	v := new(int)
	r.TryPush(v)
	r.PopBatch(make([]*int, 4))
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatalf("slot %d retains a reference after pop", i)
		}
	}
	r.TryPush(v)
	r.TryPop()
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatalf("slot %d retains a reference after TryPop", i)
		}
	}
}

func TestCloseSemantics(t *testing.T) {
	r := New[int](4)
	r.TryPush(1)
	r.Close()
	if r.TryPush(2) {
		t.Fatal("push succeeded on closed ring")
	}
	if n := r.PushBatch([]int{3}); n != 0 {
		t.Fatalf("PushBatch on closed ring = %d, want 0", n)
	}
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if v, ok := r.TryPop(); !ok || v != 1 {
		t.Fatalf("drain after close = (%d, %v), want (1, true)", v, ok)
	}
	r.Close() // idempotent
}

// TestHammerSPSC is the -race hammer livenet's link correctness
// rests on: one producer pushing randomly-sized batches of sequenced
// values, one consumer popping into randomly-sized destination slices,
// across a tiny ring (maximum wrap-around pressure). The consumer must
// observe exactly the sequence 0..N-1. Run with -race. Spin loops yield
// so the test stays fast on a single-CPU box.
func TestHammerSPSC(t *testing.T) {
	const total = 50_000
	r := New[uint64](8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		batch := make([]uint64, 17)
		next := uint64(0)
		for next < total {
			n := 1 + rng.Intn(len(batch))
			if rem := total - next; uint64(n) > rem {
				n = int(rem)
			}
			for i := 0; i < n; i++ {
				batch[i] = next + uint64(i)
			}
			sent := 0
			for sent < n {
				k := r.PushBatch(batch[sent:n])
				sent += k
				if k == 0 {
					runtime.Gosched()
				}
			}
			next += uint64(n)
		}
		r.Close()
	}()

	rng := rand.New(rand.NewSource(2))
	dst := make([]uint64, 13)
	want := uint64(0)
	for {
		n := r.PopBatch(dst[:1+rng.Intn(len(dst))])
		for i := 0; i < n; i++ {
			if dst[i] != want {
				t.Fatalf("out of order: got %d, want %d", dst[i], want)
			}
			want++
		}
		if n == 0 {
			if r.Closed() && r.Len() == 0 {
				break
			}
			runtime.Gosched()
		}
	}
	if want != total {
		t.Fatalf("consumed %d values, want %d", want, total)
	}
	wg.Wait()
}

// TestHammerMutexedProducers exercises the multi-producer discipline the
// livenet pipe uses: several producers share the ring behind a mutex
// (locked once per batch), one consumer drains. Every pushed value must
// arrive exactly once, and each producer's own values in order. Run
// with -race.
func TestHammerMutexedProducers(t *testing.T) {
	const (
		producers = 4
		perProd   = 10_000
	)
	r := New[uint64](64)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			batch := make([]uint64, 9)
			next := uint64(0)
			for next < perProd {
				n := 1 + rng.Intn(len(batch))
				if rem := perProd - next; uint64(n) > rem {
					n = int(rem)
				}
				for i := 0; i < n; i++ {
					// Tag values with the producer index in the high bits.
					batch[i] = uint64(p)<<32 | (next + uint64(i))
				}
				sent := 0
				for sent < n {
					mu.Lock()
					k := r.PushBatch(batch[sent:n])
					mu.Unlock()
					sent += k
					if k == 0 {
						runtime.Gosched()
					}
				}
				next += uint64(n)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		mu.Lock()
		r.Close()
		mu.Unlock()
		close(done)
	}()

	seen := make([]uint64, producers)
	dst := make([]uint64, 32)
	consumed := 0
	for {
		n := r.PopBatch(dst)
		for i := 0; i < n; i++ {
			p, seq := dst[i]>>32, dst[i]&0xFFFFFFFF
			if seq != seen[p] {
				t.Fatalf("producer %d: got seq %d, want %d", p, seq, seen[p])
			}
			seen[p]++
			consumed++
		}
		if n == 0 {
			if r.Closed() && r.Len() == 0 {
				break
			}
			runtime.Gosched()
		}
	}
	<-done
	if consumed != producers*perProd {
		t.Fatalf("consumed %d values, want %d", consumed, producers*perProd)
	}
}

// TestHammerShutdownMidBatch closes the ring while a producer is
// mid-stream and checks the consumer drains cleanly: everything pushed
// before the close arrives, nothing after, no hang. Run with -race.
func TestHammerShutdownMidBatch(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		r := New[int](16)
		stop := make(chan struct{})
		var pushed uint64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]int, 5)
			v := 0
			for {
				select {
				case <-stop:
					r.Close()
					return
				default:
				}
				for i := range batch {
					batch[i] = v + i
				}
				n := r.PushBatch(batch)
				v += n
				pushed = uint64(v)
			}
		}()
		dst := make([]int, 7)
		got := 0
		for i := 0; ; i++ {
			n := r.PopBatch(dst)
			for j := 0; j < n; j++ {
				if dst[j] != got {
					t.Fatalf("trial %d: got %d, want %d", trial, dst[j], got)
				}
				got++
			}
			if i == 20 {
				close(stop)
			}
			if n == 0 {
				if r.Closed() && r.Len() == 0 {
					break
				}
				runtime.Gosched()
			}
		}
		wg.Wait()
		if uint64(got) != pushed {
			t.Fatalf("trial %d: consumed %d, producer pushed %d", trial, got, pushed)
		}
	}
}

func BenchmarkPushPopBatch(b *testing.B) {
	r := New[uint64](1024)
	batch := make([]uint64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PushBatch(batch)
		r.PopBatch(batch)
	}
}
