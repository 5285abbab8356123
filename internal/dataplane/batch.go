package dataplane

import (
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viper"
)

// This file is the batched entry point of the hop kernel. The scalar
// Decide costs one hook dispatch per observable event per frame; at
// livenet's packet rates those dispatches would dominate the hop.
// DecideBatch, which every livenet router worker runs, applies the
// identical decision stage over N frames per call and accumulates the
// counter deltas in a BatchStats, flushed once per batch, so the hot
// path touches the substrate's atomic counter plane O(1) times per
// batch instead of O(N).
//
// Equivalence contract (enforced by FuzzDecideBatch and by
// internal/check's differential suites, which run netsim's one-frame
// Decide against livenet's batches — not by inspection): for every
// frame, the verdict, the token charge, and the resulting trailer
// surgery are byte-identical to what N scalar Decide calls in the same
// order would produce. Anomaly sinks — flight-recorder events and trace
// hops — stay per-frame in the pinned order (counter stage, flight
// event, trace hop); only the counter stage is deferred, which is
// unobservable at quiesce because counters are monotonic totals. See
// DESIGN.md §11 for the full batch contract.

// BatchFrame is one frame's slot in a DecideBatch call. The caller
// fills InPort, ChargeBytes, and Pkt; the kernel decodes into Seg and
// Rest and decides into Verdict in place, overwriting whatever an
// earlier batch left there, so a caller may reuse its slots without
// clearing them. Seg's variable fields alias Pkt exactly as DecodeHop's
// do — the slot is only valid while the caller owns the frame's buffer.
type BatchFrame struct {
	InPort      uint8
	ChargeBytes uint64
	Pkt         []byte

	// Seg is the decoded leading segment and Rest the packet starting
	// at the next segment; both are undefined when Verdict is a
	// DropNotSirpent (the frame failed to decode).
	Seg  viper.Segment
	Rest []byte

	Verdict Verdict
}

// BatchStats accumulates the counter deltas of one batch. The substrate
// keeps one per worker, passes it through the batched kernel calls, and
// flushes it with FlushBatch after disposing of every frame — partial
// batches included, so counters never lag further than the batch in
// flight.
type BatchStats struct {
	TokenAuthorized uint64
	Local           uint64
	Drops           [stats.NumDropReasons]uint64
}

// DecideBatch runs the decision stage — decode, token authorization and
// charging, three-way classification — for every frame of a batch,
// writing each frame's verdict in place. Frames that fail to decode get
// an ActionDrop verdict with DropNotSirpent; ActionAwaitToken verdicts
// are left for the caller to resolve (InstallTokenBatched) in batch
// order, so a deferral splits the batch exactly where the scalar path
// would have blocked. Token charges land in the same order as N scalar
// Decide calls; authorization counts accumulate into bs. The clock is
// read at most once for the whole batch, before its first frame, so
// every token check of the batch sees the batch's start.
func (p *Pipeline) DecideBatch(ts *TokenState, batch []BatchFrame, bs *BatchStats) {
	var now int64
	if ts.active() {
		now = p.now()
	}
	for i := range batch {
		b := &batch[i]
		var err error
		if b.Rest, err = viper.DecodeSegmentInto(&b.Seg, b.Pkt); err != nil {
			b.Verdict = Verdict{Action: ActionDrop, Reason: stats.DropNotSirpent}
			continue
		}
		in := HopInput{InPort: b.InPort, Seg: &b.Seg, ChargeBytes: b.ChargeBytes}
		p.decide(&b.Verdict, ts, &in, bs, now)
	}
}

// InstallTokenBatched is InstallToken with the authorization count
// accumulated into bs instead of passed to the hook one at a time.
// The substrate calls it, in batch order, for each frame whose batch
// verdict was ActionAwaitToken. DecideBatch defers every frame carrying
// the same uncached token before any of them is installed, so the
// cached check runs again first: only the first such frame pays the
// HMAC verification, the rest are charged (or denied) from the verdict
// it cached — one verification per token, as N scalar hops would do.
func (p *Pipeline) InstallTokenBatched(ts *TokenState, in *HopInput, bs *BatchStats) Verdict {
	var v Verdict
	if p.checkToken(&v, ts, in, bs, readClock); v.Action != ActionAwaitToken {
		return v
	}
	return p.installToken(ts, in, bs)
}

// DropBatched accounts one discarded frame of a batch: the drop count
// accumulates into bs (flushed at batch end), while the flight-recorder
// event and trace terminal hop fire immediately, per frame, in the same
// pinned order as the scalar Drop.
func (p *Pipeline) DropBatched(bs *BatchStats, reason stats.DropReason, inPort uint8, account uint32, pt *trace.PacketTrace, arrived int64) {
	bs.Drops[reason]++
	p.dropSinks(reason, inPort, account, pt, arrived)
}

// LocalBatched accounts one frame of a batch delivered to the node's
// own stack: count into bs, trace terminal hop immediately.
func (p *Pipeline) LocalBatched(bs *BatchStats, inPort uint8, pt *trace.PacketTrace, arrived int64) {
	bs.Local++
	p.localSinks(inPort, pt, arrived)
}

// FlushBatch publishes a batch's accumulated counts through the hooks —
// one call per touched counter — and zeroes bs for reuse.
func (p *Pipeline) FlushBatch(bs *BatchStats) {
	if bs.TokenAuthorized > 0 && p.Hooks.CountTokenAuthorized != nil {
		p.Hooks.CountTokenAuthorized(bs.TokenAuthorized)
	}
	if bs.Local > 0 && p.Hooks.CountLocal != nil {
		p.Hooks.CountLocal(bs.Local)
	}
	if p.Hooks.CountDrop != nil {
		for reason, n := range bs.Drops {
			if n > 0 {
				p.Hooks.CountDrop(stats.DropReason(reason), n)
			}
		}
	}
	*bs = BatchStats{}
}
