package dataplane

import (
	"fmt"

	"repro/internal/ledger"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Hooks is the pipeline's observability surface — the stats, trace,
// flight-recorder, and ledger touch points both substrates previously
// wired by hand. Every field is optional and nil-checked where it is
// called, so a zero Hooks reduces the pipeline to pure decision
// logic with no per-hop overhead (the livenet 0 allocs/hop contract).
//
// Counter hooks rather than a *stats.Counters pointer because the two
// substrates keep incompatible counter planes: the simulator embeds a
// plain Counters, livenet an array of atomics it snapshots on demand.
// Forwarded is deliberately absent — forwarding is counted at the
// substrate's transmit stage (cut-through vs store-and-forward on
// netsim, after the ring push on livenet), not at decision time.
type Hooks struct {
	// CountDrop, CountLocal and CountTokenAuthorized add n to the
	// substrate's counter plane. The one-frame entry points (Drop, Local,
	// Decide, InstallToken) pass 1; FlushBatch passes a batch's
	// accumulated delta, so an N-frame batch costs one counter update per
	// touched counter instead of N.
	CountDrop            func(reason stats.DropReason, n uint64)
	CountLocal           func(n uint64)
	CountTokenAuthorized func(n uint64)

	// Flight returns the current anomaly recorder, nil when disabled. A
	// func rather than a pointer because livenet installs the recorder
	// mid-run behind an atomic; it is consulted only on anomaly paths.
	Flight func() *ledger.FlightRecorder

	// QueueDepth reports an output port's queue occupancy for traced
	// forward hops; nil reports 0. Probed only when a trace record is
	// present, preserving the disabled-path contract.
	QueueDepth func(port uint8) int

	// PortUp reports whether an output port's link is currently usable;
	// nil means all ports up. It is consulted only for DAG (failover)
	// segments — the primary before classification, then each ranked
	// alternate head when the primary is down — so plain forwarding
	// never pays the probe and the 0 allocs/hop contract is untouched.
	// Substrates back it with their link state: Medium down/flap on
	// netsim, Link.SetDown plus tunnel peer-loss on livenet/udpnet.
	PortUp func(port uint8) bool
}

// Drop accounts one discarded packet through every installed sink, in
// the pinned order: counter, flight-recorder event, trace terminal hop.
// account attributes a token denial to the refused account (0
// otherwise); arrived is the leading-edge arrival stamp for traced
// latency. The caller still owns the packet's buffer and releases it
// after this returns (livenet) — the pipeline never frees memory.
func (p *Pipeline) Drop(reason stats.DropReason, inPort uint8, account uint32, pt *trace.PacketTrace, arrived int64) {
	if p.Hooks.CountDrop != nil {
		p.Hooks.CountDrop(reason, 1)
	}
	p.dropSinks(reason, inPort, account, pt, arrived)
}

// dropSinks runs the per-frame drop sinks after the counter stage:
// flight-recorder event, then trace terminal hop. Shared by the scalar
// Drop (counter bumped per frame) and the batched DropBatched (counter
// accumulated, flushed once per batch).
func (p *Pipeline) dropSinks(reason stats.DropReason, inPort uint8, account uint32, pt *trace.PacketTrace, arrived int64) {
	if p.Hooks.Flight != nil {
		if fr := p.Hooks.Flight(); fr != nil {
			fr.Record(ledger.Event{
				At: p.now(), Node: p.Node, Port: inPort,
				Kind: DropKind(reason), Reason: reason.String(), Account: account,
			})
		}
	}
	if pt != nil {
		now := p.now()
		pt.Add(trace.HopEvent{
			Node: p.Node, InPort: inPort, Action: trace.ActionDrop,
			Reason: reason, At: now, LatencyNs: now - arrived,
		})
		pt.Done()
	}
}

// Local accounts one packet delivered to the node's own stack: counter,
// then trace terminal hop. The caller runs its local handler after.
func (p *Pipeline) Local(inPort uint8, pt *trace.PacketTrace, arrived int64) {
	if p.Hooks.CountLocal != nil {
		p.Hooks.CountLocal(1)
	}
	p.localSinks(inPort, pt, arrived)
}

// localSinks is the trace stage of a local delivery, shared by Local
// and LocalBatched.
func (p *Pipeline) localSinks(inPort uint8, pt *trace.PacketTrace, arrived int64) {
	if pt != nil {
		now := p.now()
		pt.Add(trace.HopEvent{
			Node: p.Node, InPort: inPort, Action: trace.ActionLocal,
			At: now, LatencyNs: now - arrived,
		})
		pt.Done()
	}
}

// TraceForward appends a decision-time forward hop to a traced packet,
// probing the output queue depth through the hook. It must run BEFORE
// the frame is handed to the transmit path on substrates where the send
// transfers record ownership (livenet: the channel send's
// happens-before edge is what makes appends race-free).
func (p *Pipeline) TraceForward(pt *trace.PacketTrace, inPort, outPort uint8, arrived int64) {
	if pt == nil {
		return
	}
	depth := 0
	if p.Hooks.QueueDepth != nil {
		depth = p.Hooks.QueueDepth(outPort)
	}
	now := p.now()
	pt.Add(trace.HopEvent{
		Node: p.Node, InPort: inPort, OutPort: outPort,
		Action: trace.ActionForward, QueueDepth: depth,
		At: now, LatencyNs: now - arrived,
	})
}

// Failover accounts one mid-flight branch rewrite through the anomaly
// sinks, in the pinned order: flight-recorder event (KindFailover,
// stamped with the dead primary port; Reason names the chosen rank and
// out-port), then a non-terminal ActionFailover trace hop. The
// substrate calls it after the verdict and before re-entering its
// forward path on the branch head, so the subsequent hops of the trace
// show the branch actually taken.
func (p *Pipeline) Failover(inPort, primaryPort, outPort, rank uint8, pt *trace.PacketTrace, arrived int64) {
	if p.Hooks.Flight != nil {
		if fr := p.Hooks.Flight(); fr != nil {
			fr.Record(ledger.Event{
				At: p.now(), Node: p.Node, Port: primaryPort,
				Kind:   ledger.KindFailover,
				Reason: fmt.Sprintf("alt=%d out=%d", rank, outPort),
			})
		}
	}
	if pt != nil {
		now := p.now()
		pt.Add(trace.HopEvent{
			Node: p.Node, InPort: inPort, OutPort: outPort,
			Action: trace.ActionFailover, At: now, LatencyNs: now - arrived,
		})
	}
}

// CloseFanout ends a traced packet's record at a multicast fanout
// router: the branch copies travel on independent, possibly concurrent
// sub-paths that must not share one record, so the record closes with a
// forward hop naming the fanout port and the branches continue
// untraced. The caller clears its trace reference after.
func (p *Pipeline) CloseFanout(pt *trace.PacketTrace, inPort, outPort uint8, arrived int64) {
	if pt == nil {
		return
	}
	now := p.now()
	pt.Add(trace.HopEvent{
		Node: p.Node, InPort: inPort, OutPort: outPort,
		Action: trace.ActionForward, At: now, LatencyNs: now - arrived,
	})
	pt.Done()
}
