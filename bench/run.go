package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// workload is one system under load, built, driven, verified and torn
// down once.
type workload interface {
	setup() error               // build the system and complete one verified operation
	start()                     // begin offering load
	observe(tr *tracer)         // start a fresh latency pool; record spans into tr (nil: off)
	progress() counts           // cumulative progress; cheap enough for a window boundary
	stop() []string             // end the load, settle, verify; returns integrity problems
	latency() *hist             // the pool started by the last observe; valid after stop
	layer(m map[string]float64) // per-layer counters of the whole run; after stop, before teardown
	teardown()
}

// newWorkload builds a named workload or one of the traced pass's
// variants ("<workload>.<variant>").
func newWorkload(name string, seed int64) workload {
	chain := func() (*pktNet, error) { return newChain(4) }
	switch name {
	case "fwd_min":
		return &pktWorkload{build: chain, payloadLen: 16, window: 32, seed: seed}
	case "fwd_min.prepared": // network only: prepared injection, raw sink
		return &pktWorkload{build: chain, payloadLen: 16, window: 32, seed: seed, prepared: true}
	case "fwd_min.w1": // one packet in flight: the one-way delay of the chain
		return &pktWorkload{build: chain, payloadLen: 16, window: 1, seed: seed}
	case "tunnel_mtu":
		return &pktWorkload{build: func() (*pktNet, error) { return newTunnel(true) }, payloadLen: 1024, window: 8, seed: seed}
	case "tunnel_mtu.twin": // same routers and tokens, direct in-process trunk
		return &pktWorkload{build: func() (*pktNet, error) { return newTunnel(false) }, payloadLen: 1024, window: 8, seed: seed}
	case "gw_upload":
		return &gwWorkload{kind: gwUpload, seed: seed}
	case "gw_upload.bypass":
		return &gwWorkload{kind: gwBypass, seed: seed}
	case "gw_upload.duplex":
		return &gwWorkload{kind: gwDuplex, seed: seed}
	case "gw_rr":
		return &gwWorkload{kind: gwRR, seed: seed}
	case "gw_churn":
		return &gwWorkload{kind: gwChurn, seed: seed}
	}
	return nil
}

// Run shape. The untraced pass sets the system up repeatedly for a
// second (set-up time is the median), warms the last one up, and measures
// `seconds` in windows of about windowSecs. The traced pass measures a
// quarter of that untraced as its reference and half of it traced.
const (
	defaultSetups = 31
	setupBudget   = time.Second
	warmupSecs    = 3.0
	windowSecs    = 4.0
	tracedParts   = 4 // windows of the traced interval
)

type runConfig struct {
	seed        int64
	seconds     float64
	setups      int           // untraced pass: the system is set up at least this often …
	setupBudget time.Duration // … and again until this much time has gone
	traced      bool
	microBudget time.Duration // per layer micro-timing
	outDir      string        // span files
}

func (c runConfig) warmup() time.Duration {
	return time.Duration(math.Min(warmupSecs, c.seconds/4) * float64(time.Second))
}

// phase is one measured interval of a drive.
type phase struct {
	secs    float64
	windows int
	tr      *tracer
}

type driven struct {
	samples  [][]sample // per phase: windows+1 boundaries
	lat      *hist      // pooled over the last phase
	problems []string
	layer    map[string]float64
}

// drive runs a set-up workload through warm-up and the phases, then
// stops, verifies and tears it down.
func drive(w workload, warm time.Duration, phases []phase) driven {
	d := driven{layer: map[string]float64{}}
	w.start()
	time.Sleep(warm)
	for _, p := range phases {
		w.observe(p.tr)
		s := []sample{{readProc(), w.progress()}}
		for i := 0; i < p.windows; i++ {
			time.Sleep(time.Duration(p.secs / float64(p.windows) * float64(time.Second)))
			s = append(s, sample{readProc(), w.progress()})
		}
		d.samples = append(d.samples, s)
	}
	d.problems = w.stop()
	d.lat = w.latency()
	w.layer(d.layer)
	w.teardown()
	return d
}

// goroutinesOver waits up to 2 s for the goroutine count to fall back
// to base and returns what is left over.
func goroutinesOver(base int) int {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if n := runtime.NumGoroutine() - base; n <= 0 || time.Now().After(deadline) {
			return n
		}
	}
}

// row is one printed, recorded metric.
type row struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples uint64  `json:"samples"`
}

// result is one run of one workload.
type result struct {
	Workload     string   `json:"workload"`
	Traced       bool     `json:"traced"`
	Correct      bool     `json:"correct"`
	Attempted    uint64   `json:"attempted"`
	Failed       uint64   `json:"failed"`
	Problems     []string `json:"problems,omitempty"`
	Rows         []row    `json:"rows"`
	WindowSpread float64  `json:"window_spread"`
	SpanFile     string   `json:"span_file,omitempty"`
}

func (r *result) value(name string) float64 {
	for _, x := range r.Rows {
		if x.Name == name {
			return x.Value
		}
	}
	return 0
}

func opsPerSec(w window) float64 { return ratio(w.ops, w.secs) }

// emptyIntervalSecs is how long a measured interval must be before
// "nothing was attempted in it" counts as a hang. A lost packet can stall
// a gateway stream for a retransmission timer (up to 2 s), which blanks
// out the sub-second intervals of the tests and nothing longer.
const emptyIntervalSecs = 4

// verdict fills in what was attempted and what failed between two
// progress reads secs apart, and whether the run was correct.
func (r *result) verdict(first, last counts, secs float64, problems []string) {
	r.Attempted, r.Failed = last.attempted-first.attempted, last.failed-first.failed
	if r.Attempted == 0 {
		r.Attempted = 1
		if secs >= emptyIntervalSecs {
			problems = append(problems, "no operation was attempted in the measured interval")
		}
	}
	if len(problems) > 0 && r.Failed == 0 {
		r.Failed = 1 // a failed check fails the run even when no single operation can be blamed
	}
	r.Problems, r.Correct = problems, len(problems) == 0
}

// runUntraced measures a workload's end-to-end metrics.
func runUntraced(name string, cfg runConfig) (*result, error) {
	base := runtime.NumGoroutine()
	var w workload
	var setupSecs []float64
	// At least cfg.setups set-ups, and as many more as fit in setupBudget:
	// a sub-millisecond set-up needs hundreds of samples for a steady median.
	for began := time.Now(); len(setupSecs) < cfg.setups || time.Since(began) < cfg.setupBudget; {
		if w != nil {
			w.teardown()
		}
		w = newWorkload(name, cfg.seed)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	windows := int(math.Max(1, math.Round(cfg.seconds/windowSecs)))
	d := drive(w, cfg.warmup(), []phase{{cfg.seconds, windows, nil}})
	if n := goroutinesOver(base); n > 0 {
		d.problems = append(d.problems, fmt.Sprintf("%d goroutines outlive the workload", n))
	}

	s := d.samples[0]
	res := &result{Workload: name}
	res.verdict(s[0].c, s[len(s)-1].c, cfg.seconds, d.problems)
	win := windowsOf(s)
	nw := uint64(len(win))
	res.WindowSpread = spreadOver(win, opsPerSec)
	res.Rows = []row{
		{"setup_s", "s", median(setupSecs), uint64(len(setupSecs))},
		{"pkts_per_s", "1/s", medianOver(win, func(w window) float64 { return ratio(w.pkts, w.secs) }), nw},
		{"goodput_MBps", "MB/s", medianOver(win, func(w window) float64 { return ratio(w.bytes/1e6, w.secs) }), nw},
		{"cpu_us_per_pkt", "us", medianOver(win, func(w window) float64 { return ratio(w.cpuUs, w.pkts) }), nw},
		{"cpu_ms_per_MB", "ms/MB", medianOver(win, func(w window) float64 { return ratio(w.cpuUs/1e3, w.bytes/1e6) }), nw},
		{"cpu_us_per_op", "us", medianOver(win, func(w window) float64 { return ratio(w.cpuUs, w.ops) }), nw},
		{"allocs_per_pkt", "count", medianOver(win, func(w window) float64 { return ratio(w.mallocs, w.pkts) }), nw},
		{"lat_p50_us", "us", d.lat.quantile(0.50) / 1e3, d.lat.n},
		{"ok_ratio", "ratio", 1 - ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted},
	}
	return res, nil
}

// runTraced produces a workload's per-layer table: the workload again
// with spans on, its diagnostic variants, and the layer micro-timings.
func runTraced(name string, cfg runConfig) (*result, error) {
	// The layers are timed first, in a fresh process: after a gateway
	// workload the runtime is busy returning several hundred MB to the
	// system, and every allocating loop pays for it.
	m := map[string]float64{}
	if err := microTimings(m, cfg); err != nil {
		return nil, err
	}
	base := runtime.NumGoroutine()
	gets0, hits0 := poolCounters()
	w := newWorkload(name, cfg.seed)
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	tr := &tracer{}
	d := drive(w, cfg.warmup(), []phase{
		{cfg.seconds / 4, 1, nil},
		{cfg.seconds / 2, tracedParts, tr},
	})
	leaked := goroutinesOver(base)
	if leaked > 0 {
		d.problems = append(d.problems, fmt.Sprintf("%d goroutines outlive the workload", leaked))
	}
	gets1, hits1 := poolCounters()
	end := readProc()

	ref, traced := windowsOf(d.samples[0]), windowsOf(d.samples[1])
	res := &result{Workload: name, Traced: true}
	for k, v := range d.layer {
		m[k] = v
	}
	m["pool.hit_ratio"] = ratio(float64(hits1-hits0), float64(gets1-gets0))
	m["runtime.peak_rss_MB"] = float64(end.maxRSSKB) / 1024
	m["runtime.gc_cpu_share"] = ratio(end.gcCPUSecs, float64(end.cpuNs())/1e9)
	m["runtime.goroutines_end"] = math.Max(0, float64(leaked))
	m["bench.lat_p99_us"] = d.lat.quantile(0.99) / 1e3
	m["bench.lat_p999_us"] = d.lat.quantile(0.999) / 1e3
	m["bench.trace_overhead_ratio"] = ratio(medianOver(traced, opsPerSec), medianOver(ref, opsPerSec))
	m["bench.window_spread"] = spreadOver(traced, opsPerSec)
	res.WindowSpread = m["bench.window_spread"]
	if name == "tunnel_mtu" {
		m["udpnet.sys_cpu_share"] = medianOver(traced, func(w window) float64 { return ratio(w.sysUs, w.cpuUs) })
	}

	sum := tr.summary()
	m["livenet.send_ns"] = sum["livenet.Send"].P50us * 1e3
	m["gateway.open_p50_us"] = sum["gateway.DialSocks"].P50us
	if name == "gw_churn" {
		m["gateway.conn_p99_us"] = sum[rootSpan].P99us
	}
	fmt.Printf("  spans (1 operation in %d sampled on packet workloads, %d on gw_rr):\n", pktTraceEvery, rrTraceEvery)
	for _, n := range sortedKeys(sum) {
		st := sum[n]
		fmt.Printf("    %-20s n=%-7d p50=%10.2f us  p99=%10.2f us  self p50=%10.2f us\n", n, st.Count, st.P50us, st.P99us, st.SelfUs)
	}
	var err error
	if res.SpanFile, err = tr.write(cfg.outDir, name); err != nil {
		return nil, err
	}

	// The twins run untraced, so they are compared with the untraced
	// reference window.
	problems, err := variants(name, m, cfg, ratio(ref[0].cpuUs, ref[0].pkts), ratio(ref[0].mallocs, ref[0].pkts))
	if err != nil {
		return nil, err
	}
	if err := transportTimings(m, cfg); err != nil {
		return nil, err
	}
	last := d.samples[1]
	res.verdict(d.samples[0][0].c, last[len(last)-1].c, cfg.seconds*3/4, append(d.problems, problems...))
	for _, def := range perLayer {
		res.Rows = append(res.Rows, row{def.name, def.unit, m[def.name], 0})
	}
	return res, nil
}

// microTimings calls each layer's public function in a loop on the
// inputs the workloads send.
func microTimings(m map[string]float64, cfg runConfig) error {
	fx, err := newMicroFixture(make([]byte, 16), make([]byte, 1024))
	if err != nil {
		return err
	}
	for _, op := range fx.ops {
		m[op.metric] = timeOp(op.fn, cfg.microBudget) / float64(op.per)
	}
	m["viper.encode_allocs"] = allocsPerOp(fx.encode)
	m["dataplane.hop_allocs"] = allocsPerOp(fx.hop)
	m["viper.overhead_bytes"] = float64(fx.overheadBytes)
	return nil
}

// transportTimings times the VMTP transport alone: two endpoints over an
// in-memory carrier. It runs last in a traced pass — each endpoint keeps
// what it served for its 10-second duplicate-suppression window, which
// would otherwise become the workload's peak RSS.
func transportTimings(m map[string]float64, cfg runConfig) error {
	rt := newRTPair()
	defer rt.close()
	small, group := make([]byte, rrBytes), make([]byte, vmtpGroupBytes)
	var callErr error
	call := func(data []byte) func() {
		return func() {
			if _, err := rt.call(data); err != nil {
				callErr = err
			}
		}
	}
	m["vmtp.rt_call_p50_us"] = timeOp(call(small), 4*cfg.microBudget) / 1e3
	m["vmtp.rt_group_MBps"] = ratio(vmtpGroupBytes/1e6, timeOp(call(group), 4*cfg.microBudget)/1e9)
	if callErr != nil {
		return fmt.Errorf("vmtp transport timing: %w", callErr)
	}
	return nil
}

// variants runs the diagnostic twins of a workload — the same harness on
// a system with one layer removed or one setting changed — and fills the
// per-layer metrics that are differences against them.
func variants(name string, m map[string]float64, cfg runConfig, cpuPerPkt, allocsPerPkt float64) ([]string, error) {
	var problems []string
	short := func(variant string) (driven, window, error) {
		w := newWorkload(variant, cfg.seed)
		if err := w.setup(); err != nil {
			return driven{}, window{}, fmt.Errorf("%s: set-up: %w", variant, err)
		}
		fmt.Printf("  variant %s:\n", variant)
		d := drive(w, cfg.warmup()/2, []phase{{cfg.seconds / 8, 1, nil}})
		for _, p := range d.problems {
			problems = append(problems, variant+": "+p)
		}
		return d, windowsOf(d.samples[0])[0], nil
	}
	switch name {
	case "fwd_min":
		_, win, err := short("fwd_min.prepared")
		if err != nil {
			return nil, err
		}
		m["livenet.prepared_pkts_per_s"] = ratio(win.pkts, win.secs)
		m["livenet.prepared_cpu_us_per_pkt"] = ratio(win.cpuUs, win.pkts)
		hop := (m["dataplane.decide_ns"] + m["dataplane.trailer_ns"]) / 1e3
		m["livenet.handoff_us_per_hop"] = (m["livenet.prepared_cpu_us_per_pkt"] - 4*hop - m["pool.getput_ns"]/1e3) / 4
		d, _, err := short("fwd_min.w1")
		if err != nil {
			return nil, err
		}
		m["livenet.oneway_us_w1"] = d.lat.quantile(0.5) / 1e3
	case "tunnel_mtu":
		_, win, err := short("tunnel_mtu.twin")
		if err != nil {
			return nil, err
		}
		m["udpnet.added_cpu_us_per_pkt"] = cpuPerPkt - ratio(win.cpuUs, win.pkts)
		m["udpnet.added_allocs_per_pkt"] = allocsPerPkt - ratio(win.mallocs, win.pkts)
	case "gw_upload":
		_, win, err := short("gw_upload.bypass")
		if err != nil {
			return nil, err
		}
		m["gateway.bypass_MBps"] = ratio(win.bytes/1e6, win.secs)
		if _, win, err = short("gw_upload.duplex"); err != nil {
			return nil, err
		}
		m["gateway.duplex_MBps"] = ratio(win.bytes/1e6, win.secs)
	}
	return problems, nil
}
