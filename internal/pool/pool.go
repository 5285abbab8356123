// Package pool provides the size-classed frame-buffer pool behind the
// livenet zero-copy forwarding fast path. Frames travel the network in
// pooled buffers with capacity headroom, so the per-hop byte surgery of
// §6.2 (strip the leading segment, append the mirrored trailer segment)
// happens in place; the pool makes the buffer lifecycle — grab at
// injection, recycle on drop — allocation-free in steady state.
//
// The freelists deliberately avoid sync.Pool: returning a []byte through
// an interface{} boxes the slice header (one small heap allocation per
// Put), which would show up as a per-hop allocation in exactly the
// workload this pool exists to keep clean. A mutexed LIFO of slice
// headers costs nothing once its backing array is grown.
package pool

import (
	"sync"
	"sync/atomic"
)

// Size classes are powers of two spanning a minimum VIPER segment chain
// up to well past the 1500-byte VIPER MTU plus trailer headroom.
const (
	minClassBits = 8  // 256 B
	maxClassBits = 16 // 64 KiB
	numClasses   = maxClassBits - minClassBits + 1

	// maxPerClass bounds how many idle buffers a class retains; beyond
	// that, Put lets the buffer fall to the garbage collector.
	maxPerClass = 128
)

type sizeClass struct {
	mu   sync.Mutex
	free [][]byte
}

var (
	classes [numClasses]sizeClass

	gets   atomic.Uint64
	hits   atomic.Uint64
	puts   atomic.Uint64
	reject atomic.Uint64
)

// classFor returns the smallest class index whose buffers hold n bytes,
// or -1 if n exceeds the largest class.
func classFor(n int) int {
	for c, bits := 0, minClassBits; bits <= maxClassBits; c, bits = c+1, bits+1 {
		if n <= 1<<bits {
			return c
		}
	}
	return -1
}

// classOf returns the largest class index whose size is <= cap(b), or -1
// if the buffer is smaller than the smallest class.
func classOf(capacity int) int {
	if capacity < 1<<minClassBits {
		return -1
	}
	c := 0
	for bits := minClassBits; bits < maxClassBits && capacity >= 1<<(bits+1); bits++ {
		c++
	}
	return c
}

// Get returns a zero-length buffer with capacity at least n. Buffers come
// from the freelists when possible; oversized requests fall back to a
// plain allocation.
func Get(n int) []byte {
	gets.Add(1)
	c := classFor(n)
	if c < 0 {
		return make([]byte, 0, n)
	}
	sc := &classes[c]
	sc.mu.Lock()
	if last := len(sc.free) - 1; last >= 0 {
		b := sc.free[last]
		sc.free[last] = nil
		sc.free = sc.free[:last]
		sc.mu.Unlock()
		hits.Add(1)
		return b
	}
	sc.mu.Unlock()
	return make([]byte, 0, 1<<(minClassBits+c))
}

// Put recycles a buffer's backing array. The caller must hold the only
// live reference: after Put, any aliasing slice (a decoded segment field,
// a frame header view) is invalid. Undersized, oversized and surplus
// buffers are dropped for the collector: an oversized one would sit in
// the largest class at many times its size, and a peer's header can ask
// VMTP for one.
func Put(b []byte) {
	c := classOf(cap(b))
	if c < 0 || cap(b) > 1<<maxClassBits {
		reject.Add(1)
		return
	}
	sc := &classes[c]
	sc.mu.Lock()
	if len(sc.free) < maxPerClass {
		sc.free = append(sc.free, b[:0])
		sc.mu.Unlock()
		puts.Add(1)
		return
	}
	sc.mu.Unlock()
	reject.Add(1)
}

// Stats reports the pool's lifetime counters: total Gets, Gets served
// from a freelist (Hits), buffers recycled (Puts), and buffers Put but
// discarded (Rejected).
func Stats() (getsN, hitsN, putsN, rejectedN uint64) {
	return gets.Load(), hits.Load(), puts.Load(), reject.Load()
}
