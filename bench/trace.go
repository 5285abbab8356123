package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// span is one timed call the harness made into a layer. Spans of one
// operation share Op; Parent names the enclosing span of the same
// operation ("" for the root "op" span).
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass pays one pointer test per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name string, op uint64, parent string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// rootSpan is the name of every operation's root span.
const rootSpan = "op"

// spanStat summarises the spans of one name.
type spanStat struct {
	Count  int     `json:"count"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	SelfUs float64 `json:"self_p50_us"` // duration minus the part child spans cover
}

// summary groups spans by name. Self time is computed per operation:
// a span's duration minus the time its direct children cover inside it.
func (t *tracer) summary() map[string]spanStat {
	type key struct {
		op   uint64
		name string
	}
	covered := map[key]int64{} // (op, span name) → time its children cover
	for _, s := range t.spans {
		if s.Parent != "" {
			covered[key{s.Op, s.Parent}] += s.End - s.Start
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range t.spans {
		d := s.End - s.Start
		self := d - covered[key{s.Op, s.Name}]
		if self < 0 {
			self = 0
		}
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self)/1e3)
	}
	out := map[string]spanStat{}
	for name, d := range durs {
		sort.Float64s(d)
		out[name] = spanStat{
			Count:  len(d),
			P50us:  d[len(d)/2],
			P99us:  d[(len(d)*99)/100],
			SelfUs: median(selfs[name]),
		}
	}
	return out
}

// write stores the spans and their summary in dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	blob, err := json.Marshal(struct {
		Workload string              `json:"workload"`
		Summary  map[string]spanStat `json:"summary"`
		Spans    []span              `json:"spans"`
	}{workload, t.summary(), t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}
