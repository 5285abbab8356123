package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.Count() != 8 {
		t.Fatalf("Count = %d", a.Count())
	}
	if got := a.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample variance of that classic set is 32/7.
	if got := a.Variance(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	if a.Sum() != 40 {
		t.Errorf("Sum = %v", a.Sum())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("empty accumulator should be all zero")
	}
}

func TestPropertyAccumulatorMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true // skip pathological inputs
			}
		}
		if len(xs) < 2 {
			return true
		}
		var a Accumulator
		var sum float64
		for _, x := range xs {
			a.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return math.Abs(a.Mean()-mean) < 1e-6 && math.Abs(a.Variance()-naiveVar)/scale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {90, 90}, {99, 99}, {100, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s.Mean() != 50.5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Max() != 100 {
		t.Errorf("Max = %v", s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Fatal("empty sample should return zeros")
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	var s Sample
	s.Add(5)
	_ = s.Percentile(50)
	s.Add(1)
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("Percentile(0) after re-add = %v, want 1", got)
	}
}

func TestMD1PaperClaim(t *testing.T) {
	// The paper: "with reasonable load (up to about 70 percent utilization),
	// M/D/1 modeling suggests an average queue length of approximately one
	// packet or less" and "average queuing delay ... approximately the
	// transmission time for half of an average packet".
	m := MD1Metrics(0.70)
	if m.L > 1.9 {
		t.Errorf("L(0.7) = %v, expected about 1.5 or less in system", m.L)
	}
	if m.Lq > 1.0 {
		t.Errorf("Lq(0.7) = %v, paper claims ~1 or fewer queued", m.Lq)
	}
	// At 50% utilization, mean wait is exactly half a service time.
	m50 := MD1Metrics(0.5)
	if math.Abs(m50.Wq-0.5) > 1e-12 {
		t.Errorf("Wq(0.5) = %v, want 0.5 service times", m50.Wq)
	}
}

func TestMD1Monotone(t *testing.T) {
	prev := -1.0
	for rho := 0.0; rho < 0.95; rho += 0.05 {
		m := MD1Metrics(rho)
		if m.Wq < prev {
			t.Fatalf("Wq not monotone at rho=%v", rho)
		}
		prev = m.Wq
	}
}

func TestMD1Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic at rho=1")
		}
	}()
	MD1Metrics(1.0)
}
