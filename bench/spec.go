package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is a metric's name and unit. The two lists below are the
// vocabulary of the benchmark; BENCHMARK.json repeats them with each
// metric's direction and regression bound, and bench_test.go keeps the
// two in step.
type metricDef struct{ name, unit string }

// workloadNames is every workload, in the order a full run executes them.
var workloadNames = []string{"fwd_min", "tunnel_mtu", "gw_upload", "gw_rr", "gw_churn"}

// endToEnd is what a user of the stack sees. Every workload reports
// every one of them; README.md says what "pkt", "op" and "MB" mean on
// each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pkts_per_s", "1/s"},
	{"goodput_MBps", "MB/s"},
	{"cpu_us_per_pkt", "us"},
	{"cpu_ms_per_MB", "ms/MB"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_pkt", "count"},
	{"lat_p50_us", "us"},
	{"ok_ratio", "ratio"},
}

// perLayer is the traced pass's table; the prefix is the package the
// number belongs to. A value of 0 on a workload that bypasses the layer
// means "not exercised here".
var perLayer = []metricDef{
	{"viper.encode_ns", "ns"},
	{"viper.encode_allocs", "count"},
	{"viper.decode_ns", "ns"},
	{"viper.overhead_bytes", "bytes"},
	{"token.check_cached_ns", "ns"},
	{"token.cache_hit_ratio", "ratio"},
	{"token.verify_cold_ns", "ns"},
	{"dataplane.decide_ns", "ns"},
	{"dataplane.decide_tok_ns", "ns"},
	{"dataplane.decide_batch_ns", "ns"},
	{"dataplane.trailer_ns", "ns"},
	{"dataplane.hop_allocs", "count"},
	{"pool.getput_ns", "ns"},
	{"pool.hit_ratio", "ratio"},
	{"livenet.prepared_pkts_per_s", "1/s"},
	{"livenet.prepared_cpu_us_per_pkt", "us"},
	{"livenet.send_ns", "ns"},
	{"livenet.oneway_us_w1", "us"},
	{"livenet.handoff_us_per_hop", "us"},
	{"livenet.drops", "count"},
	{"livenet.forwarded_per_pkt", "count"},
	{"udpnet.added_cpu_us_per_pkt", "us"},
	{"udpnet.added_allocs_per_pkt", "count"},
	{"udpnet.sys_cpu_share", "ratio"},
	{"udpnet.drop_ratio", "ratio"},
	{"udpnet.send_errors", "count"},
	{"vmtp.segment_ns", "ns"},
	{"vmtp.encode_ns", "ns"},
	{"vmtp.decode_ns", "ns"},
	{"vmtp.rt_call_p50_us", "us"},
	{"vmtp.rt_group_MBps", "MB/s"},
	{"vmtp.retx_ratio", "ratio"},
	{"vmtp.acks_per_group", "count"},
	{"vmtp.queue_drops", "count"},
	{"vmtp.calls_failed", "count"},
	{"gateway.group_rtt_p50_us", "us"},
	{"gateway.group_rtt_p99_us", "us"},
	{"gateway.bytes_per_group", "bytes"},
	{"gateway.open_p50_us", "us"},
	{"gateway.conn_p99_us", "us"},
	{"gateway.bypass_MBps", "MB/s"},
	{"gateway.duplex_MBps", "MB/s"},
	{"gateway.resets", "count"},
	{"gateway.open_failures", "count"},
	{"gateway.active_streams_end", "count"},
	{"ledger.collect_ms", "ms"},
	{"ledger.billed_per_delivered", "ratio"},
	{"ledger.reconcile_problems", "count"},
	{"runtime.peak_rss_MB", "MB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.goroutines_end", "count"},
	{"bench.lat_p99_us", "us"},
	{"bench.lat_p999_us", "us"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.window_spread", "ratio"},
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory or its
// parent (`go run ./bench` runs at the repository root, `go test` in
// bench/) and returns it with the repository root.
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(blob, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}
