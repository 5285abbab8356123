package ledger

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
)

// Kind classifies a flight-recorder event. Only anomalies are recorded —
// the happy forwarding path never touches the recorder, so the enabled
// cost is proportional to how much is going wrong, not to throughput.
type Kind uint8

const (
	KindDrop          Kind = iota // packet discarded; Reason holds the drop bucket
	KindPreempt                   // lower-priority transmission aborted mid-frame
	KindQueueOverflow             // output queue rejected a frame at its limit
	KindTokenDenied               // token check refused a packet
	KindRateLimit                 // a congestion signal imposed or re-pinned a limit
	KindLinkFlap                  // a link went down or came back
	KindDecodeError               // a tunnel datagram failed SIRP frame validation
	KindUnknownLink               // a tunnel datagram named a linkID with no attached tunnel
	KindSendError                 // a tunnel datagram could not be written to the socket
	KindFailover                  // a DAG hop diverted to an in-header alternate route

	numKinds
)

var kindNames = [numKinds]string{
	"drop", "preempt", "queue-overflow", "token-denied", "rate-limit", "link-flap",
	"decode-error", "unknown-link", "send-error", "failover",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON exports the kind as its stable name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// UnmarshalJSON inverts MarshalJSON, so events survive the trip
// through a telemetry report. Unrecognized names decode as numKinds
// ("unknown") rather than erroring: a newer peer's event kinds must
// not make an older aggregator reject the whole report.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == name {
			*k = Kind(i)
			return nil
		}
	}
	*k = numKinds
	return nil
}

// Event is one recorded anomaly. At is nanoseconds on the substrate's
// clock — virtual time on netsim, wall time on livenet — so events from
// one run order totally but are not comparable across substrates.
type Event struct {
	Seq     uint64  `json:"seq"`
	At      int64   `json:"at_ns"`
	Node    string  `json:"node"`
	Port    uint8   `json:"port,omitempty"`
	Kind    Kind    `json:"kind"`
	Reason  string  `json:"reason,omitempty"`  // drop bucket, "down"/"up", …
	Account uint32  `json:"account,omitempty"` // token-denied: the refused account (0 if unverified)
	Bps     float64 `json:"bps,omitempty"`     // rate-limit: the imposed rate
}

func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "#%-6d %12dns  %-10s p%-3d %s", e.Seq, e.At, e.Node, e.Port, e.Kind)
	if e.Reason != "" {
		fmt.Fprintf(&sb, " %s", e.Reason)
	}
	if e.Account != 0 {
		fmt.Fprintf(&sb, " acct=%d", e.Account)
	}
	if e.Bps != 0 {
		fmt.Fprintf(&sb, " bps=%.0f", e.Bps)
	}
	return sb.String()
}

// DefaultFlightRecorderSize is the ring capacity used when none is
// given: roughly the last 4k anomalies.
const DefaultFlightRecorderSize = 4096

// FlightRecorder is an always-on bounded ring of anomalous events. It is
// lock-cheap by construction: the ring is allocated once, Record copies
// one Event under a mutex held for a few stores, and nothing allocates.
// A nil *FlightRecorder is a valid no-op recorder, mirroring the
// trace.Tracer contract, so call sites stay un-branched:
//
//	r.flight.Record(ledger.Event{...}) // safe when disabled
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // events ever recorded; buf[next%cap] is the write slot
}

// NewFlightRecorder creates a recorder keeping the last size events
// (DefaultFlightRecorderSize if size <= 0).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightRecorderSize
	}
	return &FlightRecorder{buf: make([]Event, size)}
}

// Record appends one event, overwriting the oldest when the ring is
// full. Safe to call on a nil recorder.
func (fr *FlightRecorder) Record(ev Event) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	ev.Seq = fr.next
	fr.buf[fr.next%uint64(len(fr.buf))] = ev
	fr.next++
	fr.mu.Unlock()
}

// Total reports how many events have ever been recorded (including ones
// the ring has since overwritten). Safe on nil.
func (fr *FlightRecorder) Total() uint64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.next
}

// Events returns the retained events, oldest first. Safe on nil.
func (fr *FlightRecorder) Events() []Event {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	n := fr.next
	capacity := uint64(len(fr.buf))
	start := uint64(0)
	if n > capacity {
		start = n - capacity
	}
	out := make([]Event, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, fr.buf[i%capacity])
	}
	return out
}

// FlightSnapshot is the JSON form served at /debug/flightrec.
type FlightSnapshot struct {
	Capacity    int     `json:"capacity"`
	Total       uint64  `json:"total"`
	Overwritten uint64  `json:"overwritten"` // recorded but no longer retained
	Events      []Event `json:"events"`
}

// Snapshot captures the recorder state for serving. Safe on nil.
func (fr *FlightRecorder) Snapshot() FlightSnapshot {
	if fr == nil {
		return FlightSnapshot{}
	}
	evs := fr.Events()
	total := fr.Total()
	return FlightSnapshot{
		Capacity:    len(fr.buf),
		Total:       total,
		Overwritten: total - uint64(len(evs)),
		Events:      evs,
	}
}

// Format renders the retained events as an indented table, newest last —
// the form attached as evidence to differential-suite failures. Safe on
// nil (returns a placeholder line).
func (fr *FlightRecorder) Format() string {
	evs := fr.Events()
	if len(evs) == 0 {
		return "  (no anomalous events recorded)\n"
	}
	var sb strings.Builder
	for _, ev := range evs {
		sb.WriteString("  ")
		sb.WriteString(ev.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
