package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareFiles prints, per workload × end-to-end metric, both files'
// values, the change from A to B, and a verdict against the metric's
// bound in BENCHMARK.json:
//
//	better      B improved on A
//	within      B is worse by no more than the bound
//	worse       B is worse by more than the bound
//	unresolved  either run's windows spread further than the bound, so
//	            the row cannot carry a verdict either way
//
// It reports whether no row is worse or unresolved.
func compareFiles(spec *benchSpec, pathA, pathB string) bool {
	a, err := readResultFile(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("A: %s  commit %s dirty=%v seed=%d\nB: %s  commit %s dirty=%v seed=%d\n\n",
		pathA, a.Env.Commit, a.Env.Dirty, a.Env.Seed, pathB, b.Env.Commit, b.Env.Dirty, b.Env.Seed)
	fmt.Printf("%-11s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	clean := true
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil || wa.Untraced == nil || wb.Untraced == nil {
			fmt.Printf("%-11s missing from one file\n", name)
			clean = false
			continue
		}
		ra, rb := wa.Untraced, wb.Untraced
		for _, m := range spec.EndToEnd {
			va, vb := ra.value(m.Name), rb.value(m.Name)
			change := ratio(vb-va, va)
			worse := change // how far B moved in the bad direction
			if m.Better == "higher" {
				worse = -change
			}
			// Counts, ratios and set-up time are not taken from the timed
			// windows, so the windows' spread says nothing about them.
			timed := m.Unit != "count" && m.Unit != "ratio" && m.Name != "setup_s"
			verdict := "within"
			switch {
			case timed && (ra.WindowSpread > m.Bound || rb.WindowSpread > m.Bound):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			case worse < 0:
				verdict = "better"
			}
			if verdict == "worse" || verdict == "unresolved" {
				clean = false
			}
			fmt.Printf("%-11s %-16s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", name, m.Name, va, vb, 100*change, 100*m.Bound, verdict)
		}
	}
	return clean
}

func readResultFile(path string) (*resultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
