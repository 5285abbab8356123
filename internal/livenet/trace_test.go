package livenet

import (
	"sync/atomic"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viper"
)

func TestLiveTraceDeliveredPath(t *testing.T) {
	rec := trace.NewRecorder(nil)
	n := NewNetwork(WithTracer(rec))
	defer n.Stop()

	src := n.NewHost("src")
	r1 := n.NewRouter("r1")
	r2 := n.NewRouter("r2")
	dst := n.NewHost("dst")
	n.Connect(src, 1, r1, 1)
	n.Connect(r1, 2, r2, 1)
	n.Connect(r2, 2, dst, 1)

	var delivered atomic.Bool
	dst.Handle(0, func(d Delivery) { delivered.Store(true) })

	route := []viper.Segment{
		{Port: 1}, {Port: 2}, {Port: 2}, {Port: viper.PortLocal},
	}
	if err := src.Send(route, []byte("traced")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, delivered.Load)
	waitFor(t, func() bool { return len(rec.Traces()) == 1 })

	pt := rec.Traces()[0]
	// Origin forward at src, one forward per router, local at dst.
	wantNodes := []string{"src", "r1", "r2", "dst"}
	if len(pt.Hops) != len(wantNodes) {
		t.Fatalf("hops = %d, want %d:\n%s", len(pt.Hops), len(wantNodes), pt.Format())
	}
	for i, ev := range pt.Hops {
		if ev.Node != wantNodes[i] {
			t.Fatalf("hop %d at %q, want %q:\n%s", i, ev.Node, wantNodes[i], pt.Format())
		}
		if ev.CutThrough {
			t.Fatalf("livenet stores full frames; hop marked cut-through: %+v", ev)
		}
	}
	for _, i := range []int{1, 2} {
		if ev := pt.Hops[i]; ev.Action != trace.ActionForward || ev.InPort != 1 || ev.OutPort != 2 {
			t.Fatalf("router hop = %+v:\n%s", ev, pt.Format())
		}
	}
	if last := pt.Hops[3]; last.Action != trace.ActionLocal || last.LatencyNs < 0 {
		t.Fatalf("terminal hop = %+v", last)
	}
	if sum := pt.Summary(); sum != "src > r1 > r2 > dst local" {
		t.Fatalf("Summary() = %q", sum)
	}
}

func TestLiveTraceDropAtRouter(t *testing.T) {
	rec := trace.NewRecorder(nil)
	n := NewNetwork(WithTracer(rec))
	defer n.Stop()

	src := n.NewHost("src")
	r1 := n.NewRouter("r1")
	n.Connect(src, 1, r1, 1)

	route := []viper.Segment{
		{Port: 1}, {Port: 9}, {Port: viper.PortLocal}, // r1 has no port 9
	}
	if err := src.Send(route, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.Traces()) == 1 })

	pt := rec.Traces()[0]
	last := pt.Hops[len(pt.Hops)-1]
	if last.Node != "r1" || last.Action != trace.ActionDrop || last.Reason != stats.DropBadPort {
		t.Fatalf("terminal hop = %+v, want bad-port drop at r1:\n%s", last, pt.Format())
	}
	// The failed attempt leaves the forward hop before the drop hop.
	if len(pt.Hops) < 2 || pt.Hops[len(pt.Hops)-2].Action != trace.ActionForward {
		t.Fatalf("expected attempted-forward hop before the drop:\n%s", pt.Format())
	}
	waitFor(t, func() bool { return r1.Stats().DropCount(stats.DropBadPort) == 1 })
}

func TestLiveTraceLostOnLink(t *testing.T) {
	rec := trace.NewRecorder(nil)
	n := NewNetwork(WithTracer(rec))
	defer n.Stop()

	src := n.NewHost("src")
	r1 := n.NewRouter("r1")
	dst := n.NewHost("dst")
	n.Connect(src, 1, r1, 1)
	n.Connect(r1, 2, dst, 1).SetDown(true) // second hop is cut

	route := []viper.Segment{{Port: 1}, {Port: 2}, {Port: viper.PortLocal}}
	if err := src.Send(route, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.Traces()) == 1 })

	pt := rec.Traces()[0]
	last := pt.Hops[len(pt.Hops)-1]
	if last.Action != trace.ActionLost || last.Node != "dst" {
		t.Fatalf("terminal hop = %+v, want lost at dst:\n%s", last, pt.Format())
	}
}

func TestLiveTraceMetricsAggregate(t *testing.T) {
	m := trace.NewMetrics()
	n := NewNetwork(WithTracer(m))
	defer n.Stop()

	src := n.NewHost("src")
	r1 := n.NewRouter("r1")
	dst := n.NewHost("dst")
	n.Connect(src, 1, r1, 1)
	n.Connect(r1, 2, dst, 1)

	var delivered atomic.Int64
	dst.Handle(0, func(d Delivery) { delivered.Add(1) })

	route := []viper.Segment{{Port: 1}, {Port: 2}, {Port: viper.PortLocal}}
	const pkts = 10
	for i := 0; i < pkts; i++ {
		if err := src.Send(route, []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return delivered.Load() == pkts })
	waitFor(t, func() bool { return m.Snapshot().Packets == pkts })

	s := m.Snapshot()
	if s.Local != pkts {
		t.Fatalf("local = %d, want %d", s.Local, pkts)
	}
	// Origin forward at src + forward at r1, per packet.
	if s.Forwarded != 2*pkts {
		t.Fatalf("forwarded = %d, want %d", s.Forwarded, 2*pkts)
	}
	var r1port bool
	for _, p := range s.Ports {
		if p.Port == "r1:2" && p.Forwarded == pkts {
			r1port = true
		}
	}
	if !r1port {
		t.Fatalf("per-port metrics missing r1:2=%d: %+v", pkts, s.Ports)
	}
}

// TestLiveTraceDisabledIsDefault pins that an un-traced network carries
// nil Trace pointers end to end (the zero-overhead contract's precondition).
func TestLiveTraceDisabledIsDefault(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	src := n.NewHost("src")
	dst := n.NewHost("dst")
	n.Connect(src, 1, dst, 1)
	var got atomic.Bool
	dst.Handle(0, func(d Delivery) { got.Store(true) })
	if err := src.Send([]viper.Segment{{Port: 1}, {Port: viper.PortLocal}}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, got.Load)
	if n.cfg.tracer != nil {
		t.Fatal("tracer should default to nil")
	}
}
