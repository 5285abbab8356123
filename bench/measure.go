package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// epoch anchors every stamp the harness takes; nowNs is monotonic.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// ---- latency histogram ---------------------------------------------------

// hist is a log-linear histogram of nanosecond durations: 64 buckets per
// power of two, so a bucket is at most 1.6 % wide. It has one writer; a
// workload with several recording goroutines keeps one hist each and
// merges them after the goroutines have stopped.
type hist struct {
	counts [64 + 58*64]uint64
	n      uint64
}

func histIndex(v int64) int {
	if v < 64 {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 7 // v>>e is in [64,128)
	return 64 + e*64 + int(uint64(v)>>uint(e)) - 64
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile interpolates inside the bucket holding the q-th sample and
// returns nanoseconds; 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := float64(i), 1.0
			if i >= 64 {
				e := uint((i - 64) / 64)
				lo = float64(uint64(64+(i-64)%64) << e)
				width = float64(uint64(1) << e)
			}
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return 0
}

// ---- process counters ------------------------------------------------------

// procSnap is one read of the process-wide cost counters.
type procSnap struct {
	at        int64 // nowNs
	userNs    int64
	sysNs     int64
	mallocs   uint64
	gcCPUSecs float64
	maxRSSKB  int64
}

func (p procSnap) cpuNs() int64 { return p.userNs + p.sysNs }

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readProc() procSnap {
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail with valid arguments.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	s := procSnap{
		at:       nowNs(),
		userNs:   ru.Utime.Nano(),
		sysNs:    ru.Stime.Nano(),
		mallocs:  ms.Mallocs,
		maxRSSKB: int64(ru.Maxrss),
	}
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPUSecs = gcCPUSample[0].Value.Float64()
	}
	return s
}

// ---- windows -------------------------------------------------------------

// counts are a workload's cumulative progress counters.
type counts struct {
	ops       uint64 // completed, verified operations
	pkts      uint64 // network packets delivered (packet workloads) or carried (gateway)
	bytes     uint64 // verified payload bytes
	attempted uint64 // operations offered
	failed    uint64 // operations known not to have completed correctly
}

// sample is one window boundary.
type sample struct {
	proc procSnap
	c    counts
}

// window is the difference of two consecutive samples.
type window struct {
	secs                  float64
	ops, pkts, bytes      float64
	cpuUs, sysUs, mallocs float64
}

func windowsOf(s []sample) []window {
	var w []window
	for i := 1; i < len(s); i++ {
		a, b := s[i-1], s[i]
		w = append(w, window{
			secs:    float64(b.proc.at-a.proc.at) / 1e9,
			ops:     float64(b.c.ops - a.c.ops),
			pkts:    float64(b.c.pkts - a.c.pkts),
			bytes:   float64(b.c.bytes - a.c.bytes),
			cpuUs:   float64(b.proc.cpuNs()-a.proc.cpuNs()) / 1e3,
			sysUs:   float64(b.proc.sysNs-a.proc.sysNs) / 1e3,
			mallocs: float64(b.proc.mallocs - a.proc.mallocs),
		})
	}
	return w
}

// ratio is a/b, 0 when b is 0 (a window in which nothing completed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOver is the median over windows of f(window).
func medianOver(w []window, f func(window) float64) float64 {
	v := make([]float64, len(w))
	for i := range w {
		v[i] = f(w[i])
	}
	return median(v)
}

// spreadOver is (max − min) / median of f over the windows: the noise
// flag a reader checks before believing a row.
func spreadOver(w []window, f func(window) float64) float64 {
	if len(w) < 2 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	v := make([]float64, len(w))
	for i := range w {
		v[i] = f(w[i])
		lo, hi = math.Min(lo, v[i]), math.Max(hi, v[i])
	}
	return ratio(hi-lo, median(v))
}

// ---- micro-timing ------------------------------------------------------------

// timeOp returns the median over batches of the mean nanoseconds per
// call of fn, spending about budget in total.
func timeOp(fn func(), budget time.Duration) float64 {
	n := 1
	for { // grow the batch until it takes ~200 µs, so clock reads vanish
		t0 := nowNs()
		for i := 0; i < n; i++ {
			fn()
		}
		if nowNs()-t0 >= 200_000 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var means []float64
	for end := nowNs() + int64(budget); nowNs() < end || len(means) < 3; {
		t0 := nowNs()
		for i := 0; i < n; i++ {
			fn()
		}
		means = append(means, float64(nowNs()-t0)/float64(n))
	}
	return median(means)
}

// allocsPerOp is the malloc count per call of fn. The counter is
// process-wide and something else may allocate meanwhile, which can only
// add: the smallest of a few trials is fn's own.
func allocsPerOp(fn func()) float64 {
	fn() // warm
	const trials, n = 5, 200
	best := math.Inf(1)
	var a, b runtime.MemStats
	for t := 0; t < trials; t++ {
		runtime.ReadMemStats(&a)
		for i := 0; i < n; i++ {
			fn()
		}
		runtime.ReadMemStats(&b)
		best = math.Min(best, float64(b.Mallocs-a.Mallocs)/n)
	}
	return best
}

// settle polls read until two consecutive reads 50 ms apart agree, for
// at most 2 s, and reports whether they did. Integrity checks run only
// after it, so a packet or acknowledgement still in flight cannot turn
// into an off-by-one.
func settle[T comparable](read func() T) bool {
	prev := read()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		cur := read()
		if cur == prev {
			return true
		}
		prev = cur
	}
	return false
}
