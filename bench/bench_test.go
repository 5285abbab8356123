package main

import (
	"testing"
	"time"
)

// TestSpecNames keeps BENCHMARK.json and the lists the program emits
// from in step: same workloads, same metrics, same units, same order.
func TestSpecNames(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s metric %s: better=%q", kind, got[i].Name, got[i].Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestWorkloads runs every workload briefly, untraced and traced, and
// checks that every integrity check passes and that each pass emits
// exactly the metrics BENCHMARK.json names. It asserts no speed.
func TestWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		cfg := runConfig{seed: 7, seconds: 0.3, setups: 3, microBudget: 2 * time.Millisecond, outDir: t.TempDir()}
		res, err := runUntraced(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, endToEnd)

		cfg.seconds, cfg.traced = 0.1, true
		res, err = runTraced(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, perLayer)
		for _, must0 := range []string{"dataplane.hop_allocs", "ledger.reconcile_problems", "runtime.goroutines_end"} {
			if v := res.value(must0); v != 0 {
				t.Errorf("%s: %s = %v, want 0", name, must0, v)
			}
		}
	}
}

func checkResult(t *testing.T, res *result, want []metricDef) {
	t.Helper()
	if !res.Correct {
		t.Errorf("%s (traced=%v): failed checks: %v", res.Workload, res.Traced, res.Problems)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%s (traced=%v): %d metrics emitted, want %d", res.Workload, res.Traced, len(res.Rows), len(want))
	}
	for i, r := range res.Rows {
		if r.Name != want[i].name || r.Unit != want[i].unit {
			t.Errorf("%s: metric %d is %s [%s], want %s [%s]", res.Workload, i, r.Name, r.Unit, want[i].name, want[i].unit)
		}
	}
}
