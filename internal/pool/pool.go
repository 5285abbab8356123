// Package pool provides the size-classed free lists behind the livenet
// zero-copy forwarding fast path. Frames travel the network in pooled
// buffers with capacity headroom, so the per-hop byte surgery of §6.2
// (strip the leading segment, append the mirrored trailer segment)
// happens in place; the pool makes the buffer lifecycle — grab at
// injection, recycle on drop — allocation-free in steady state.
//
// A List is one size-classed free list of values that each own one
// buffer. Get and Put run the package's list of bare []byte buffers;
// internal/livenet runs a List of its frame objects, so a frame is
// taken and recycled together with its buffer under one lock. Every
// List counts into the package's counters (Stats), so a balanced
// process reads gets = puts + rejected whichever list a value came
// from.
//
// The free lists deliberately avoid sync.Pool: returning a []byte
// through an interface{} boxes the slice header (one small heap
// allocation per Put), and sync.Pool empties at every collection and
// refills by allocating, which would show up as per-hop allocations in
// exactly the workload this pool exists to keep clean. A mutexed LIFO
// per class costs nothing once its backing array is grown.
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

	// maxPerClass bounds how many idle values a class of one List
	// retains; beyond that, Put lets the value fall to the garbage
	// collector.
	maxPerClass = 128
)

// A List is a size-classed LIFO free list of values that each own a
// buffer; a value's class is its buffer's. The zero List with New set
// is ready to use, and is safe for concurrent use.
type List[T any] struct {
	// New makes a value owning an empty buffer of the given capacity.
	// Get calls it when the class has nothing idle.
	New func(capacity int) T

	classes [numClasses]freeList[T]
}

type freeList[T any] struct {
	mu   sync.Mutex
	free []T
}

var (
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

// Get returns a value whose buffer holds at least n bytes: the class's
// most recently recycled one when it has one, else a new one of the
// class's size. Oversized requests get a new value of exactly n.
func (l *List[T]) Get(n int) T {
	gets.Add(1)
	c := classFor(n)
	if c < 0 {
		return l.New(n)
	}
	fl := &l.classes[c]
	fl.mu.Lock()
	if last := len(fl.free) - 1; last >= 0 {
		v := fl.free[last]
		var zero T
		fl.free[last] = zero
		fl.free = fl.free[:last]
		fl.mu.Unlock()
		hits.Add(1)
		return v
	}
	fl.mu.Unlock()
	return l.New(1 << (minClassBits + c))
}

// Put recycles v, whose buffer has the given capacity. The caller must
// hold the only live reference to v and its buffer: after Put, any
// aliasing slice (a decoded segment field, a frame header view) is
// invalid. Undersized, oversized and surplus values are dropped for the
// collector: an oversized one would sit in the largest class at many
// times its size, and a peer's header can ask VMTP for one.
func (l *List[T]) Put(v T, capacity int) {
	c := classOf(capacity)
	if c < 0 || capacity > 1<<maxClassBits {
		reject.Add(1)
		return
	}
	fl := &l.classes[c]
	fl.mu.Lock()
	if len(fl.free) < maxPerClass {
		fl.free = append(fl.free, v)
		fl.mu.Unlock()
		puts.Add(1)
		return
	}
	fl.mu.Unlock()
	reject.Add(1)
}

// buffers is the package's List of bare buffers.
var buffers = List[[]byte]{New: func(capacity int) []byte { return make([]byte, 0, capacity) }}

// Get returns a zero-length buffer with capacity at least n.
func Get(n int) []byte { return buffers.Get(n) }

// Put recycles a buffer's backing array (see List.Put).
func Put(b []byte) { buffers.Put(b[:0], cap(b)) }

// Stats reports the lifetime counters of every List: total Gets, Gets
// served from a free list (Hits), values recycled (Puts), and values
// Put but discarded (Rejected).
func Stats() (getsN, hitsN, putsN, rejectedN uint64) {
	return gets.Load(), hits.Load(), puts.Load(), reject.Load()
}
