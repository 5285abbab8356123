package check

import (
	"fmt"
	"sync"
)

// DeliveryRec is one observed delivery of a flow's request packet.
type DeliveryRec struct {
	Host   string `json:"host"`    // where it arrived
	Fp     string `json:"fp"`      // Fingerprint of the accumulated return route
	DataOK bool   `json:"data_ok"` // payload bytes survived intact
}

// ResultSnapshot is a Result's observations as plain data: the
// delivery record a cluster peer ships in its JSON snapshot, and what
// Merge folds back into a Result.
type ResultSnapshot struct {
	Delivered map[uint64][]DeliveryRec `json:"delivered,omitempty"` // flow -> request arrivals
	Replied   map[uint64][]string      `json:"replied,omitempty"`   // flow -> hosts its echo reached
	Garbled   int                      `json:"garbled,omitempty"`
	SendErrs  int                      `json:"send_errs,omitempty"`
}

// Result collects what one substrate (or one cluster peer) observed for
// a scenario. All methods are safe for concurrent use (livenet handlers
// run on host goroutines); reads should happen after the run quiesces.
type Result struct {
	mu  sync.Mutex
	obs ResultSnapshot
}

// NewResult creates an empty observation set.
func NewResult() *Result {
	return &Result{obs: ResultSnapshot{
		Delivered: make(map[uint64][]DeliveryRec),
		Replied:   make(map[uint64][]string),
	}}
}

// AddDelivery records a request arrival.
func (r *Result) AddDelivery(id uint64, rec DeliveryRec) {
	r.mu.Lock()
	r.obs.Delivered[id] = append(r.obs.Delivered[id], rec)
	r.mu.Unlock()
}

// AddReply records a reply arrival.
func (r *Result) AddReply(id uint64, host string) {
	r.mu.Lock()
	r.obs.Replied[id] = append(r.obs.Replied[id], host)
	r.mu.Unlock()
}

// AddGarbled records a delivery whose payload didn't parse — always an
// invariant violation.
func (r *Result) AddGarbled() {
	r.mu.Lock()
	r.obs.Garbled++
	r.mu.Unlock()
}

// AddSendErr records a failed injection.
func (r *Result) AddSendErr() {
	r.mu.Lock()
	r.obs.SendErrs++
	r.mu.Unlock()
}

// Snapshot returns a copy of the observations so far.
func (r *Result) Snapshot() ResultSnapshot {
	out := NewResult()
	r.mu.Lock()
	defer r.mu.Unlock()
	out.Merge(r.obs)
	return out.obs
}

// Merge adds another run's observations (a cluster peer's share) to r.
func (r *Result) Merge(s ResultSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, recs := range s.Delivered {
		r.obs.Delivered[id] = append(r.obs.Delivered[id], recs...)
	}
	for id, hosts := range s.Replied {
		r.obs.Replied[id] = append(r.obs.Replied[id], hosts...)
	}
	r.obs.Garbled += s.Garbled
	r.obs.SendErrs += s.SendErrs
}

// Counts snapshots the aggregate totals (deliveries and replies counted
// with multiplicity, so duplicates move the numbers).
func (r *Result) Counts() (deliv, reply, garbled, sendErrs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, recs := range r.obs.Delivered {
		deliv += len(recs)
	}
	for _, hosts := range r.obs.Replied {
		reply += len(hosts)
	}
	return deliv, reply, r.obs.Garbled, r.obs.SendErrs
}

// Deliveries returns the recorded request arrivals for a flow.
func (r *Result) Deliveries(id uint64) []DeliveryRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]DeliveryRec(nil), r.obs.Delivered[id]...)
}

// ReplyHosts returns where a flow's replies arrived.
func (r *Result) ReplyHosts(id uint64) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.obs.Replied[id]...)
}

// Diff compares two runs' observations of one scenario, named aName
// and bName in its lines, and returns a description of every
// divergence: delivery-set membership, delivering host, trailer
// contents (via the return-route fingerprint), payload integrity, and
// reply arrivals.
func Diff(a, b *Result, sc *Scenario, aName, bName string) []string {
	out, perFlow := diffObservations(a, b, sc, aName, bName)
	for _, f := range sc.Flows {
		out = append(out, perFlow[f.ID]...)
	}
	return out
}

// DivergingFlows returns the IDs of the flows whose observations differ
// between the substrates, in flow order — the join key for pulling
// hop-level trace evidence out of a Recorder.
func DivergingFlows(simR, liveR *Result, sc *Scenario) []uint64 {
	_, perFlow := diffObservations(simR, liveR, sc, "netsim", "livenet")
	var ids []uint64
	for _, f := range sc.Flows {
		if len(perFlow[f.ID]) > 0 {
			ids = append(ids, f.ID)
		}
	}
	return ids
}

// diffObservations does the comparison once, splitting global problems
// (garbled payloads) from per-flow divergences so callers can either
// flatten everything (Diff) or join flows to traces (DivergingFlows).
func diffObservations(aR, bR *Result, sc *Scenario, an, bn string) (global []string, perFlow map[uint64][]string) {
	perFlow = make(map[uint64][]string)

	if _, _, g, _ := aR.Counts(); g > 0 {
		global = append(global, fmt.Sprintf("%s: %d garbled deliveries", an, g))
	}
	if _, _, g, _ := bR.Counts(); g > 0 {
		global = append(global, fmt.Sprintf("%s: %d garbled deliveries", bn, g))
	}
	for _, f := range sc.Flows {
		bad := func(format string, args ...any) {
			perFlow[f.ID] = append(perFlow[f.ID], fmt.Sprintf(format, args...))
		}
		a, b := aR.Deliveries(f.ID), bR.Deliveries(f.ID)
		if len(a) != len(b) {
			bad("flow %d: delivered %d times in %s, %d in %s", f.ID, len(a), an, len(b), bn)
			continue
		}
		if len(a) == 0 {
			continue // missing from both: consistent
		}
		if len(a) > 1 {
			bad("flow %d: duplicated (%d copies) in both %s and %s", f.ID, len(a), an, bn)
			continue
		}
		if a[0].Host != b[0].Host {
			bad("flow %d: arrived at %s in %s, %s in %s", f.ID, a[0].Host, an, b[0].Host, bn)
		}
		if a[0].Fp != b[0].Fp {
			bad("flow %d: return routes diverge:\n  %s: %s\n  %s: %s", f.ID, an, a[0].Fp, bn, b[0].Fp)
		}
		if !a[0].DataOK || !b[0].DataOK {
			bad("flow %d: payload corrupted (%s ok=%v, %s ok=%v)", f.ID, an, a[0].DataOK, bn, b[0].DataOK)
		}
		ra, rb := aR.ReplyHosts(f.ID), bR.ReplyHosts(f.ID)
		if len(ra) != len(rb) {
			bad("flow %d: %d replies in %s, %d in %s", f.ID, len(ra), an, len(rb), bn)
		} else if len(ra) == 1 && len(rb) == 1 && ra[0] != rb[0] {
			bad("flow %d: reply landed at %s in %s, %s in %s", f.ID, ra[0], an, rb[0], bn)
		}
	}
	return global, perFlow
}

// CheckReachability verifies the paper's core claim on one substrate's
// observations: every delivered request arrived at the flow's intended
// destination, exactly once, and its reply — sent along nothing but the
// accumulated trailer — arrived back at the flow's source, exactly once.
func CheckReachability(res *Result, sc *Scenario) []string {
	var out []string
	bad := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	for _, f := range sc.Flows {
		recs := res.Deliveries(f.ID)
		if len(recs) == 0 {
			bad("flow %d: never delivered", f.ID)
			continue
		}
		if len(recs) > 1 {
			bad("flow %d: delivered %d times", f.ID, len(recs))
			continue
		}
		if want := HostName(f.Dst); recs[0].Host != want {
			bad("flow %d: delivered to %s, want %s", f.ID, recs[0].Host, want)
		}
		if !recs[0].DataOK {
			bad("flow %d: payload corrupted in flight", f.ID)
		}
		replies := res.ReplyHosts(f.ID)
		if len(replies) != 1 {
			bad("flow %d: %d replies, want exactly 1", f.ID, len(replies))
			continue
		}
		if want := HostName(f.Src); replies[0] != want {
			bad("flow %d: reply landed at %s, want source %s", f.ID, replies[0], want)
		}
	}
	return out
}
