// Package trace is the hop-level observability layer shared by both
// forwarding substrates. The paper's central performance claim is that
// cut-through source routing reduces the per-hop delay to the switch
// decision time (§2.1, §6.1); end-to-end benchmarks can confirm the
// total, but only a per-hop record can show *where* a packet spent its
// time or why it was dropped at a given hop — and in a source-routed
// network no router holds enough state to answer that after the fact.
//
// The design is packet-centric: a *PacketTrace rides with the packet
// (in netsim.Transmission, in livenet's pooled frame object) and each
// node appends one HopEvent per action — forward (cut-through or
// store-and-forward), local delivery, drop with a stats.DropReason,
// preemption, blocking, or in-flight loss. When the packet's story
// ends the record is handed to the Tracer that began it: a Recorder
// retains whole records for per-hop tables, a Metrics folds them into
// aggregate counters, latency histograms and drop-reason buckets for
// export.
//
// # The nil-Tracer zero-overhead contract
//
// Tracing is disabled by default and its disabled cost is part of the
// forwarding fast path's performance contract: with no Tracer
// installed every per-packet trace pointer is nil, every emission site
// is behind a single nil check, and a forwarded hop performs zero
// additional allocations and zero time-source reads
// (livenet's TestForwardHopAllocs pins this). Substrates must
// therefore guard all HopEvent construction, clock reads and queue
// depth probes with `if pt != nil`.
//
// Hop timestamps come from an internal/clock.Source: virtual
// nanoseconds on the netsim substrate, monotonic wall nanoseconds on
// livenet. The two bases are not comparable with each other — only
// within one record.
package trace

import (
	"repro/internal/stats"
)

// Action classifies what a node did with a packet at one hop.
type Action uint8

const (
	// ActionForward: the packet was transmitted toward its next hop.
	ActionForward Action = iota
	// ActionLocal: the packet was delivered to the node's own stack.
	ActionLocal
	// ActionDrop: the packet was discarded; Reason says why.
	ActionDrop
	// ActionPreempt: the packet aborted a lower-priority transmission
	// in progress on its output port (§2.1).
	ActionPreempt
	// ActionBlock: the output port was busy (or rate-gated), so the
	// packet was fully received and buffered — the hop degrades from
	// cut-through to store-and-forward (§2.1).
	ActionBlock
	// ActionLost: the packet died in flight — link fault injection or
	// an aborted transmission — rather than by a router's decision.
	ActionLost
	// ActionFailover: the node found the hop's primary port down and
	// rewrote the route to a ranked in-header alternate; OutPort is the
	// alternate taken. Non-terminal — the next hops show the branch.
	ActionFailover

	numActions
)

var actionNames = [numActions]string{
	"forward", "local", "drop", "preempt", "block", "lost", "failover",
}

func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return "unknown"
}

// HopEvent is one observation of a packet at a node. Which fields are
// meaningful depends on Action: Reason only for ActionDrop, OutPort and
// CutThrough only for ActionForward, QueueDepth for forward/block.
type HopEvent struct {
	Node    string // node name
	InPort  uint8  // arrival port (0 for locally originated packets)
	OutPort uint8  // departure port for ActionForward
	Action  Action
	Reason  stats.DropReason // drop bucket, valid when Action == ActionDrop
	// QueueDepth is the output-queue occupancy observed at the action:
	// packets for netsim output queues, frames for livenet channels.
	QueueDepth int
	// CutThrough reports whether a forward began while the tail was
	// still arriving (netsim; livenet always stores a full frame).
	CutThrough bool
	// At is the clock.Source stamp of the action in nanoseconds —
	// virtual time on netsim, monotonic wall time on livenet.
	At int64
	// LatencyNs is the per-hop latency: leading-edge arrival at this
	// node to the action. For a store-and-forward hop it includes the
	// queue wait.
	LatencyNs int64
}

// PacketTrace accumulates the per-hop records of one packet. It is
// owned by whichever node currently owns the packet (ownership moves
// with the frame/transmission, so appends never race); Done hands the
// finished record to the Tracer that began it.
//
// Limits, by design: tree-multicast fanout ends the parent record at
// the fanout router (branches are independent packets and are not
// traced), and a broadcast delivery on a shared segment appends all
// receivers' events to the one record.
type PacketTrace struct {
	// ID is the packet's identity as derived by the Tracer (e.g. the
	// conformance harness's flow ID); 0 when the Tracer cannot tell.
	ID   uint64
	Hops []HopEvent

	// Ctx is the packet's cross-process trace identity, if any: set by
	// cluster-aware tracers (ClusterTracer) so a frame leaving this
	// process through a tunnel or gateway can carry its trace on the
	// wire. Zero for process-local records.
	Ctx Context

	sink Tracer
}

// Add appends one hop observation. Safe on a nil receiver (no-op), so
// emission sites stay branch-free — but substrates should still guard
// event *construction* behind a nil check to keep the disabled path at
// zero cost.
func (p *PacketTrace) Add(ev HopEvent) {
	if p == nil {
		return
	}
	p.Hops = append(p.Hops, ev)
}

// Done hands the finished record to its Tracer. Safe on a nil receiver
// and idempotent: the first call delivers, later calls are no-ops
// (broadcast deliveries can reach several terminal handlers).
func (p *PacketTrace) Done() {
	if p == nil || p.sink == nil {
		return
	}
	sink := p.sink
	p.sink = nil
	sink.Finish(p)
}

// Tracer receives per-packet trace records. Implementations must be
// safe for concurrent use: on the livenet substrate Begin and Finish
// are called from host and router goroutines.
type Tracer interface {
	// Begin opens a record for a packet about to be injected; payload
	// is the user data (implementations may derive an ID from it).
	// Returning nil skips tracing for this packet.
	Begin(payload []byte) *PacketTrace
	// Finish consumes a completed record: the packet was delivered,
	// dropped, or lost.
	Finish(*PacketTrace)
}

// Start opens a per-packet record against t, tolerating a nil or
// declining Tracer: the result is nil exactly when tracing is off for
// this packet, and every downstream Add/Done is then a no-op.
func Start(t Tracer, payload []byte) *PacketTrace {
	if t == nil {
		return nil
	}
	pt := t.Begin(payload)
	if pt != nil {
		pt.sink = t
	}
	return pt
}

// Tee fans records out to several tracers: Begin asks the first
// non-declining tracer for the record (so IDs come from it) and Finish
// delivers the completed record to every member.
func Tee(tracers ...Tracer) Tracer { return teeTracer(tracers) }

type teeTracer []Tracer

func (t teeTracer) Begin(payload []byte) *PacketTrace {
	for _, tr := range t {
		if tr == nil {
			continue
		}
		if pt := tr.Begin(payload); pt != nil {
			return pt
		}
	}
	return nil
}

func (t teeTracer) Finish(pt *PacketTrace) {
	for _, tr := range t {
		if tr != nil {
			tr.Finish(pt)
		}
	}
}
