// Package stats provides the small statistics toolkit used by the Sirpent
// experiments and the observability layer: online moment accumulators,
// sampled percentiles, and the M/D/1 queueing formulas that the
// paper's §6.1 analysis relies on.
//
// Two pieces cross package boundaries and deserve care. Counters and
// DropReason are the substrate-neutral forwarding-counter surface shared
// by the netsim and livenet routers; the DropReason String() values are
// exported metric identifiers (expvar JSON keys, trace tables) pinned by
// the stability test in counters_test.go. Log2Histogram is the
// power-of-two latency histogram behind trace.Metrics' per-hop timing
// percentiles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator keeps online count/mean/variance/min/max of a series using
// Welford's algorithm.
type Accumulator struct {
	n        int64
	mean, m2 float64
	min, max float64
	sum      float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	a.sum += x
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Count returns the number of observations.
func (a *Accumulator) Count() int64 { return a.n }

// Sum returns the total of all observations.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the sample variance (n-1 denominator).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation, or 0 with none.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation, or 0 with none.
func (a *Accumulator) Max() float64 { return a.max }

func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", a.n, a.Mean(), a.StdDev(), a.min, a.max)
}

// Sample retains all observations for exact percentile queries. The
// experiments produce at most a few hundred thousand samples, so retaining
// them is cheap and keeps percentiles exact.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted sample. Returns 0 with no observations.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.xs))))
	if rank < 1 {
		rank = 1
	}
	return s.xs[rank-1]
}

// Max returns the largest observation, or 0 with none.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// MD1 holds the analytic M/D/1 queue quantities for Poisson arrivals at
// utilization rho into a deterministic server. The Sirpent paper (§6.1)
// cites these to argue that at <= 70% utilization the mean queue is about
// one packet and the mean wait about half a packet service time.
type MD1 struct {
	Rho   float64 // utilization = lambda * service
	Wq    float64 // mean wait in queue, in units of service time
	Lq    float64 // mean number waiting in queue
	L     float64 // mean number in system (queue + in service)
	Wtota float64 // mean total time in system, in service-time units
}

// MD1Metrics evaluates the Pollaczek–Khinchine formulas for an M/D/1 queue
// at utilization rho (0 <= rho < 1), in units of the deterministic service
// time.
func MD1Metrics(rho float64) MD1 {
	if rho < 0 || rho >= 1 {
		panic("stats: M/D/1 requires 0 <= rho < 1")
	}
	wq := rho / (2 * (1 - rho))
	return MD1{
		Rho:   rho,
		Wq:    wq,
		Lq:    rho * wq,
		L:     rho + rho*wq,
		Wtota: 1 + wq,
	}
}
