package ledger

import "fmt"

// RampState classifies a rate limit's position in the §2.2 soft-state
// lifecycle: a congestion signal imposes (or re-pins) the limit, the
// limit holds while signals keep arriving, and once the congested port
// goes quiet the limit ramps multiplicatively back toward line rate
// until it expires.
type RampState uint8

const (
	// RampHolding: a recent signal pinned the limit; it has not started
	// recovering yet.
	RampHolding RampState = iota
	// RampRamping: the congested port has gone quiet and the limit is
	// increasing toward line rate.
	RampRamping
)

func (s RampState) String() string {
	switch s {
	case RampHolding:
		return "holding"
	case RampRamping:
		return "ramping"
	}
	return "unknown"
}

// MarshalJSON exports the state as its stable name.
func (s RampState) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

// LimitStatus describes one active rate limit on a node's output port.
type LimitStatus struct {
	Port          uint8     `json:"port"`           // port the limit throttles
	CongestedPort uint8     `json:"congested_port"` // downstream port whose signal imposed it
	Bps           float64   `json:"bps"`            // current allowed rate
	LineBps       float64   `json:"line_bps"`       // the port's line rate (ramp target)
	State         RampState `json:"state"`
}

// CongestionCounters tallies the rate controller's activity on one node.
type CongestionCounters struct {
	SignalsEmitted  uint64 `json:"signals_emitted"`  // RateSignals sent to upstream feeders
	SignalsReceived uint64 `json:"signals_received"` // RateSignals delivered to this node
	LimitsImposed   uint64 `json:"limits_imposed"`   // fresh limits installed
	LimitsRefreshed uint64 `json:"limits_refreshed"` // signals that re-pinned an existing limit
	RampSteps       uint64 `json:"ramp_steps"`       // quiet-interval multiplicative increases
	LimitsExpired   uint64 `json:"limits_expired"`   // limits ramped past line rate and removed
}

// DwellSummary summarizes how long rate-gated frames sat in an output
// queue before the token-bucket released them.
type DwellSummary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	MaxNs  int64   `json:"max_ns"`
}

// NodeCongestion is one node's congestion-telemetry snapshot: counters,
// the currently active limits, and gated-queue dwell time.
type NodeCongestion struct {
	Node string `json:"node"`
	CongestionCounters
	Limits    []LimitStatus `json:"limits,omitempty"`
	GateDwell DwellSummary  `json:"gate_dwell"`
}
