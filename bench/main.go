// Command bench is the repository's benchmark: five named workloads
// measured from outside, through the public functions of the stack, with
// nine end-to-end metrics and a per-layer table. BENCHMARK.json at the
// repository root names its command, workloads, metrics and regression
// bounds; README.md in this directory explains every choice.
//
//	go run ./bench                                   every workload, untraced then traced
//	go run ./bench -workload gw_rr -trace 0          one workload's end-to-end metrics
//	go run ./bench -workload gw_rr -trace 1          one workload's per-layer metrics
//	go run ./bench -compare A.json B.json            two result files against the bounds
//
// All traffic crosses in-process links or the host's loopback interface
// (TCP and UDP), never a real link.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// defaultSeed generates the payload bytes when -seed is not given.
const defaultSeed = 1

func main() {
	workloadFlag := flag.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", defaultSeed, "seed of the generated payloads")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics with spans on")
	cpuprofile := flag.String("cpuprofile", "", "with -workload: write a CPU profile of the run")
	memprofile := flag.String("memprofile", "", "with -workload: write an allocation profile at the end of the run")
	compare := flag.String("compare", "", "compare result file A (this flag) with result file B (the argument) against the bounds")
	flag.Parse()

	spec, root, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: -compare A.json B.json"))
		}
		if !compareFiles(spec, *compare, flag.Arg(0)) {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	// Recorded, not swept: more processors than the load generators and
	// a few forwarding goroutines can use only add scheduler noise.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	outDir := filepath.Join(root, "bench", "out")
	e := environment(root, *seed, *seconds)

	if *workloadFlag == "" {
		if *cpuprofile != "" || *memprofile != "" {
			fatal(fmt.Errorf("-cpuprofile and -memprofile profile one workload: add -workload"))
		}
		if !runAll(e, outDir) {
			os.Exit(1)
		}
		return
	}
	if newWorkload(*workloadFlag, *seed) == nil || strings.Contains(*workloadFlag, ".") {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workloadFlag, strings.Join(workloadNames, ", ")))
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	e.print()
	cfg := runConfig{seed: *seed, seconds: *seconds, setups: defaultSetups, setupBudget: setupBudget, traced: *trace != 0, microBudget: 150 * time.Millisecond, outDir: outDir}
	res, err := runOne(*workloadFlag, cfg)
	if err != nil {
		fatal(err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		f.Close()
	}
	res.print()
	if err := writeJSON(filepath.Join(outDir, runFile(res.Workload, res.Traced)), res); err != nil {
		fatal(err)
	}
	fmt.Println(res.contractLine())
	if !res.Correct {
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func runOne(name string, cfg runConfig) (*result, error) {
	if cfg.traced {
		fmt.Printf("%s: traced pass, %.3g s reference + %.3g s with spans\n", name, cfg.seconds/4, cfg.seconds/2)
		return runTraced(name, cfg)
	}
	fmt.Printf("%s: untraced pass, %.3g s of set-ups, %.3g s warm-up + %.3g s measured\n", name, cfg.setupBudget.Seconds(), cfg.warmup().Seconds(), cfg.seconds)
	return runUntraced(name, cfg)
}

func runFile(workload string, traced bool) string {
	if traced {
		return "run-" + workload + "-traced.json"
	}
	return "run-" + workload + ".json"
}

// ---- environment ---------------------------------------------------------------

// env is the header every output carries.
type env struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"measured_seconds"`
	Warmup     float64 `json:"warmup_seconds"`
	Links      string  `json:"links"`
}

func environment(root string, seed int64, seconds float64) env {
	e := env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Warmup:     runConfig{seconds: seconds}.warmup().Seconds(),
		Links:      "loopback only: in-process links and 127.0.0.1 TCP/UDP, never a real link",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// Outside a git work tree (an exported checkout) the commit stays unknown.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(st) > 0
		}
	}
	return e
}

func (e env) print() {
	fmt.Printf("commit %s dirty=%v  %s  kernel %s  NumCPU=%d GOMAXPROCS=%d  seed=%d  measured=%.3gs warm-up=%.3gs\n%s\n",
		e.Commit, e.Dirty, e.GoVersion, e.Kernel, e.NumCPU, e.GOMAXPROCS, e.Seed, e.Seconds, e.Warmup, e.Links)
}

// ---- output --------------------------------------------------------------------

func (r *result) print() {
	for _, p := range r.Problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
	fmt.Printf("  %-34s %16s %-7s %10s\n", "metric", "value", "unit", "samples")
	for _, x := range r.Rows {
		samples := "-"
		if x.Samples > 0 {
			samples = fmt.Sprint(x.Samples)
		}
		fmt.Printf("  %-34s %16.6g %-7s %10s\n", x.Name, x.Value, x.Unit, samples)
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v window_spread=%.4f\n", r.Attempted, r.Failed, r.Correct, r.WindowSpread)
}

// contractLine is the last line of a one-workload run: the result in the
// form the benchmark's driver reads.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, x := range r.Rows {
		metrics[x.Name] = mv{x.Value, x.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatal(err) // only a NaN or Inf value can fail here
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---- the full run ----------------------------------------------------------------

// resultFile is bench/out/latest.json: what -compare reads.
type resultFile struct {
	Env       env                  `json:"env"`
	Workloads map[string]*wlResult `json:"workloads"`
}

type wlResult struct {
	Untraced *result `json:"end_to_end"`
	Traced   *result `json:"per_layer"`
}

// runAll runs every workload untraced, then every workload traced, each
// in its own child process — so mallocs, CPU time and peak RSS belong to
// one workload and a leak cannot bleed into the next — and gathers the
// children's result files into latest.json.
func runAll(e env, outDir string) bool {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	e.print()
	out := resultFile{Env: e, Workloads: map[string]*wlResult{}}
	ok := true
	for _, traced := range []bool{false, true} {
		for _, name := range workloadNames {
			trace := "0"
			if traced {
				trace = "1"
			}
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(e.Seed),
				"-seconds", fmt.Sprint(e.Seconds), "-trace", trace)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			fmt.Println()
			if err := cmd.Run(); err != nil {
				fmt.Printf("%s (trace %s): %v\n", name, trace, err)
				ok = false
			}
			var res result
			blob, err := os.ReadFile(filepath.Join(outDir, runFile(name, traced)))
			if err == nil {
				err = json.Unmarshal(blob, &res)
			}
			if err != nil || res.Traced != traced {
				fmt.Printf("%s (trace %s): no result file\n", name, trace)
				ok = false
				continue
			}
			if out.Workloads[name] == nil {
				out.Workloads[name] = &wlResult{}
			}
			if traced {
				out.Workloads[name].Traced = &res
			} else {
				out.Workloads[name].Untraced = &res
			}
		}
	}
	latest := filepath.Join(outDir, "latest.json")
	if err := writeJSON(latest, out); err != nil {
		fatal(err)
	}
	out.printTables()
	fmt.Printf("\nwrote %s\n", latest)
	return ok
}

// printTables prints both tables with one column per workload.
func (f *resultFile) printTables() {
	table := func(title string, defs []metricDef, pick func(*wlResult) *result) {
		fmt.Printf("\n%s\n%-34s %-7s", title, "metric", "unit")
		for _, w := range workloadNames {
			fmt.Printf(" %13s", w)
		}
		fmt.Println()
		for _, d := range defs {
			fmt.Printf("%-34s %-7s", d.name, d.unit)
			for _, w := range workloadNames {
				if wl := f.Workloads[w]; wl != nil && pick(wl) != nil {
					fmt.Printf(" %13.6g", pick(wl).value(d.name))
				} else {
					fmt.Printf(" %13s", "-")
				}
			}
			fmt.Println()
		}
	}
	table("end to end (untraced pass)", endToEnd, func(w *wlResult) *result { return w.Untraced })
	table("per layer (traced pass; 0 = layer not exercised by the workload)", perLayer, func(w *wlResult) *result { return w.Traced })
}
