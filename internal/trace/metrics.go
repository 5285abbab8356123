package trace

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/stats"
)

// Metrics is a Tracer that folds finished records into aggregate
// counters instead of retaining them: total forwarding counters,
// per-port counters keyed "node:port", a log-scale histogram of
// per-hop latencies, and cut-through/store-and-forward/preempt/block
// tallies. It backs `sirpent-bench -trace`'s hop-latency histogram.
// Safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	packets uint64 // finished records
	hops    uint64 // hop events folded in

	totals stats.Counters // aggregate forward/local/drop counters

	cutThrough   uint64 // forwards that began before the tail arrived
	storeForward uint64 // forwards of a fully buffered frame
	preempts     uint64
	blocks       uint64
	lost         uint64

	perPort map[string]*stats.Counters // "node:port" -> counters
	hopLat  stats.Log2Histogram        // per-hop latency, ns
}

// NewMetrics creates an empty aggregator.
func NewMetrics() *Metrics {
	return &Metrics{perPort: make(map[string]*stats.Counters)}
}

// Begin implements Tracer.
func (m *Metrics) Begin(payload []byte) *PacketTrace {
	return &PacketTrace{Hops: make([]HopEvent, 0, 8)}
}

// Finish implements Tracer: fold the record's hops into the aggregates.
func (m *Metrics) Finish(pt *PacketTrace) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.packets++
	for i := range pt.Hops {
		ev := &pt.Hops[i]
		m.hops++
		switch ev.Action {
		case ActionForward:
			m.totals.Forwarded++
			m.port(ev.Node, ev.OutPort).Forwarded++
			if ev.CutThrough {
				m.cutThrough++
			} else {
				m.storeForward++
			}
			m.hopLat.Add(ev.LatencyNs)
		case ActionLocal:
			m.totals.Local++
			m.port(ev.Node, ev.InPort).Local++
			m.hopLat.Add(ev.LatencyNs)
		case ActionDrop:
			m.totals.Drop(ev.Reason)
			m.port(ev.Node, ev.InPort).Drop(ev.Reason)
		case ActionPreempt:
			m.preempts++
		case ActionBlock:
			m.blocks++
		case ActionLost:
			m.lost++
		}
	}
}

func (m *Metrics) port(node string, port uint8) *stats.Counters {
	key := fmt.Sprintf("%s:%d", node, port)
	c := m.perPort[key]
	if c == nil {
		c = &stats.Counters{}
		m.perPort[key] = c
	}
	return c
}

// PortMetrics is the exported per-port counter block of a Snapshot.
type PortMetrics struct {
	Port      string            `json:"port"` // "node:port"
	Forwarded uint64            `json:"forwarded"`
	Local     uint64            `json:"local"`
	Drops     map[string]uint64 `json:"drops,omitempty"` // by DropReason.String()
}

// LatencyBucket is one exported histogram bucket: Count hop latencies
// v in nanoseconds with Lo <= v < Hi.
type LatencyBucket struct {
	Lo    int64 `json:"lo_ns"`
	Hi    int64 `json:"hi_ns"`
	Count int64 `json:"count"`
}

// Snapshot is a point-in-time JSON-marshalable view of a Metrics.
// Every map key that names a drop bucket is a stats.DropReason.String()
// value — the stability test in internal/stats pins those names.
type Snapshot struct {
	Packets uint64 `json:"packets"`
	Hops    uint64 `json:"hops"`

	Forwarded uint64            `json:"forwarded"`
	Local     uint64            `json:"local"`
	Drops     map[string]uint64 `json:"drops,omitempty"`

	CutThrough   uint64 `json:"cut_through"`
	StoreForward uint64 `json:"store_forward"`
	Preempts     uint64 `json:"preempts"`
	Blocks       uint64 `json:"blocks"`
	Lost         uint64 `json:"lost"`

	HopLatencyMeanNs float64         `json:"hop_latency_mean_ns"`
	HopLatencyP50Ns  int64           `json:"hop_latency_p50_ns"`
	HopLatencyP99Ns  int64           `json:"hop_latency_p99_ns"`
	HopLatency       []LatencyBucket `json:"hop_latency,omitempty"`

	Ports []PortMetrics `json:"ports,omitempty"`
}

// Snapshot returns the current aggregates.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Packets:      m.packets,
		Hops:         m.hops,
		Forwarded:    m.totals.Forwarded,
		Local:        m.totals.Local,
		Drops:        dropMap(m.totals),
		CutThrough:   m.cutThrough,
		StoreForward: m.storeForward,
		Preempts:     m.preempts,
		Blocks:       m.blocks,
		Lost:         m.lost,

		HopLatencyMeanNs: m.hopLat.Mean(),
		HopLatencyP50Ns:  m.hopLat.Percentile(50),
		HopLatencyP99Ns:  m.hopLat.Percentile(99),
	}
	for _, b := range m.hopLat.Buckets() {
		s.HopLatency = append(s.HopLatency, LatencyBucket{Lo: b.Lo, Hi: b.Hi, Count: b.Count})
	}
	keys := make([]string, 0, len(m.perPort))
	for k := range m.perPort {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := m.perPort[k]
		s.Ports = append(s.Ports, PortMetrics{
			Port:      k,
			Forwarded: c.Forwarded,
			Local:     c.Local,
			Drops:     dropMap(*c),
		})
	}
	return s
}

// dropMap converts the drop bucket array to a name-keyed map, omitting
// empty buckets. Keys are DropReason.String() values.
func dropMap(c stats.Counters) map[string]uint64 {
	var out map[string]uint64
	for _, r := range stats.DropReasons() {
		if n := c.DropCount(r); n > 0 {
			if out == nil {
				out = make(map[string]uint64)
			}
			out[r.String()] = n
		}
	}
	return out
}
