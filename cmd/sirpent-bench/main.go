// Command sirpent-bench regenerates the paper's evaluation: every
// experiment table in the reproduction index (DESIGN.md §2), printed with
// its paper claim and shape checks. It measures nothing about the running
// stack — throughput, latency and allocation figures come from the one
// benchmark harness, `go run ./bench` (bench/README.md).
//
// Usage:
//
//	sirpent-bench            # run everything
//	sirpent-bench -run E03   # one experiment
//	sirpent-bench -list      # list experiment IDs
//	sirpent-bench -trace     # replay seeded topologies with per-hop traces
//	sirpent-bench -ledger    # token-authorized billing cross-check
//
// Any mode combines with -cpuprofile and/or -memprofile to capture
// pprof-format profiles of the selected workload:
//
//	sirpent-bench -run E03 -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
//
// Trace mode replays the conformance harness's seeded scenarios with
// hop-level tracing enabled on both substrates, prints a per-hop timing
// table for every flow (narrow to one with -trace-flow), and exits
// non-zero if any flow's path diverges between netsim and livenet.
//
// Ledger mode runs the same seeded scenarios with every router
// token-guarded and each flow billed to a per-source account, prints the
// per-account billing table from each substrate, and exits non-zero if
// either ledger fails reconciliation against its forwarding plane or
// the substrates bill differently.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	runID := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	traceMode := flag.Bool("trace", false, "replay seeded topologies with hop-level tracing and print per-hop tables")
	traceSeeds := flag.String("trace-seeds", "1,2,3", "comma-separated scenario seeds for -trace")
	traceFlow := flag.Uint64("trace-flow", 0, "print only this flow ID in -trace output (0: all flows)")
	ledgerMode := flag.Bool("ledger", false, "run token-authorized seeded scenarios on both substrates and cross-check per-account billing")
	ledgerSeeds := flag.String("ledger-seeds", "1,2,3", "comma-separated scenario seeds for -ledger")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected workload to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	// The workload body returns an exit code instead of calling os.Exit
	// so profile teardown (StopCPUProfile, the heap snapshot) always
	// runs — os.Exit skips deferred writes.
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	code := func() int {
		if *traceMode {
			if err := runTrace(*traceSeeds, *traceFlow); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
			return 0
		}

		if *ledgerMode {
			if err := runLedger(*ledgerSeeds); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 1
			}
			return 0
		}

		ids := experiments.IDs()
		if *runID != "" {
			ids = strings.Split(*runID, ",")
		}

		failed := 0
		for _, id := range ids {
			t, err := experiments.Run(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return 2
			}
			t.Fprint(os.Stdout)
			failed += len(t.Failed())
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "%d shape checks FAILED\n", failed)
			return 1
		}
		return 0
	}()
	stopProfiles()
	os.Exit(code)
}

// startProfiles begins CPU profiling and arranges a heap snapshot at
// stop; either path may be empty. The returned stop must run before
// os.Exit.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
			fmt.Printf("wrote %s\n", cpu)
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", mem)
	}, nil
}
