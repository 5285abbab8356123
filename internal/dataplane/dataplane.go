// Package dataplane is the shared per-hop decision kernel of the Sirpent
// router. The paper's core claim (§2, §5) is that a router's per-hop work
// is one fixed decision: strip the leading VIPER segment, check its port
// token, take one of three actions — route onwards, route local, or drop
// — and mirror the reversed segment onto the trailer. The repo realizes
// the forwarding algorithm twice (the event-driven netsim substrate in
// internal/router, the goroutine livenet substrate in internal/livenet);
// both now forward through this package, so the decision stage is
// identical by construction rather than by differential testing.
//
// The kernel is substrate-agnostic by taking no I/O and no time source of
// its own: callers hand it decoded segments (or raw bytes, via DecodeHop)
// and buffers, timestamps come from the Pipeline's clock.Source (virtual
// nanoseconds on netsim, monotonic wall nanoseconds on livenet), and
// everything observable — counters, flight-recorder events, trace hops —
// goes through the nil-checked Hooks struct. A zero Hooks makes the
// pipeline pure decision logic, which is what keeps livenet's 0 allocs
// per forwarded hop contract intact (TestForwardHopAllocs).
//
// What stays substrate-specific, deliberately: transmission (cut-through
// vs store-and-forward, queues, rate control on netsim; ring pushes on
// livenet), the netsim-only port extensions (multicast fanout groups and
// §2.2 logical port groups resolve after ActionForward), and the *timing*
// of uncached-token verification — the pipeline returns ActionAwaitToken
// and the substrate decides when to call InstallToken (synchronously on
// livenet, after Config.TokenVerifyTime on netsim, per token.Mode).
//
// See DESIGN.md §10 for the full contract: buffer ownership, hook
// ordering, and what the differential suite still covers.
package dataplane

import (
	"math"

	"repro/internal/clock"
	"repro/internal/ledger"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/viper"
)

// Action is the three-way per-hop decision of §2.1 — route onwards,
// route local, or drop — extended with the tree-multicast fanout (§2)
// and the deferred-token wait the substrates schedule themselves.
type Action uint8

const (
	// ActionForward: transmit the remainder toward Verdict.OutPort.
	ActionForward Action = iota
	// ActionLocal: deliver to the node's own stack (port 0, §5).
	ActionLocal
	// ActionDrop: discard; Verdict.Reason holds the accounting bucket.
	ActionDrop
	// ActionTree: tree-structured multicast (FlagTRE); the substrate
	// splices each branch sub-route and re-enters the pipeline per copy.
	ActionTree
	// ActionAwaitToken: the packet's token is not cached. The substrate
	// applies its token.Mode on its own clock and calls InstallToken
	// when the full verification completes.
	ActionAwaitToken
	// ActionFailover: the segment is a DAG hop whose primary out-port is
	// down and a live ranked alternate exists. The substrate replaces the
	// packet's remaining forward route with Verdict.AltRoute (in place on
	// the wire substrate, via SpliceAltRoute) and re-enters the pipeline
	// on the branch head, which carries its own token — so only the
	// branch actually taken is charged.
	ActionFailover
)

func (a Action) String() string {
	switch a {
	case ActionForward:
		return "forward"
	case ActionLocal:
		return "local"
	case ActionDrop:
		return "drop"
	case ActionTree:
		return "tree"
	case ActionAwaitToken:
		return "await-token"
	case ActionFailover:
		return "failover"
	}
	return "unknown"
}

// Verdict is the substrate-independent outcome of one hop decision. The
// cross-substrate property test pins that identical inputs produce
// identical Verdicts whether constructed the netsim way (decoded packet,
// virtual clock) or the livenet way (wire bytes, wall clock).
type Verdict struct {
	Action  Action
	OutPort uint8            // valid for ActionForward and ActionTree
	Reason  stats.DropReason // valid for ActionDrop
	// Account is the token account charged or refused, for flight-
	// recorder attribution; 0 when no verified token was involved.
	Account uint32
	// Reverse is what the token check learned about using the packet's
	// token on the return route; ReturnSegment takes it from here and
	// asks the cache only when it is ReverseUnknown.
	Reverse Reverse
	// AltRank (1-based, best first) and AltRoute describe the chosen
	// branch of an ActionFailover verdict: AltRoute is the complete
	// remaining route from this node, its head segment executing here
	// with OutPort and its own token. Nil on every other action, so the
	// no-failover path never allocates.
	AltRank  uint8
	AltRoute []viper.Segment
}

// Reverse is what a hop's token check learned about reverse use of the
// packet's token (§2.2: "whether reverse route charging is
// authorized"), which decides whether the hop mirrors the token into
// the trailer.
type Reverse uint8

const (
	// ReverseUnknown: the hop consulted no cached spec for the token —
	// it carries none, tokens are off, or it was admitted before its
	// verification (ActionAwaitToken). ReturnSegment asks the cache.
	ReverseUnknown Reverse = iota
	// ReverseOK: the cached spec permits reverse use; the token is
	// mirrored into the trailer.
	ReverseOK
	// ReverseWithheld: the cached spec forbids reverse use; the token
	// is withheld from the trailer.
	ReverseWithheld
)

// Equal reports field-by-field verdict equality, comparing AltRoute
// segment by segment. The AltRoute slice makes Verdict non-comparable
// with ==, so the parity suites compare through this.
func (v Verdict) Equal(o Verdict) bool {
	if v.Action != o.Action || v.OutPort != o.OutPort || v.Reason != o.Reason ||
		v.Account != o.Account || v.AltRank != o.AltRank || v.Reverse != o.Reverse ||
		len(v.AltRoute) != len(o.AltRoute) {
		return false
	}
	for i := range v.AltRoute {
		if !v.AltRoute[i].Equal(&o.AltRoute[i]) {
			return false
		}
	}
	return true
}

// HopInput is one arrived packet at the decision point. Seg is the
// decoded leading segment; its variable fields may alias the caller's
// buffer (DecodeHop) — the pipeline never retains them past the call.
type HopInput struct {
	InPort uint8
	Seg    *viper.Segment
	// ChargeBytes is the on-wire frame size, network header included —
	// the byte count a token check charges to the account (§2.2). Both
	// substrates must compute it identically (netsim.FrameSize on one,
	// len(frame)+header on the other); the property test pins this.
	ChargeBytes uint64
}

// Classify resolves the three-way action for an authorized segment. It
// is a pure function of the segment, shared by Decide and by substrates
// re-classifying tree-multicast branch heads.
func Classify(seg *viper.Segment) Verdict {
	var v Verdict
	classify(&v, seg, ReverseUnknown)
	return v
}

// classify is Classify for a segment whose token check learned rev,
// writing the verdict into *v.
func classify(v *Verdict, seg *viper.Segment, rev Reverse) {
	// Tree multicast is checked before local delivery — a tree segment's
	// port field is unused (§2). A DAG blob under the same flag is a
	// failover hop, not a fanout: it forwards on its primary port like a
	// plain segment (the alternates only matter when that port is down,
	// which Decide checks before classification).
	action, port := ActionForward, seg.Port
	switch {
	case seg.Flags.Has(viper.FlagTRE):
		if !viper.IsDAGInfo(seg.PortInfo) {
			action = ActionTree
		}
	case seg.Port == viper.PortLocal:
		action, port = ActionLocal, 0
	}
	*v = Verdict{Action: action, OutPort: port, Reverse: rev}
}

// Pipeline is one router's instance of the shared hop kernel: identity
// and clock for event stamping, the uncached-token mode, and the hook
// points. It holds no mutable state of its own — token state travels as
// an explicit *TokenState so substrates choose their own publication
// discipline (a plain field on the single-threaded simulator, an
// atomic.Pointer on livenet) — so one goroutine per router may call it
// concurrently with configuration changes.
type Pipeline struct {
	// Node names the router in flight-recorder events and trace hops.
	Node string
	// Clock stamps events and feeds token-expiry checks: SimSource on
	// netsim, Wall on livenet. Read only on token, trace, and anomaly
	// paths — the plain forwarding fast path performs no clock reads.
	Clock clock.Source
	// Mode is the router's uncached-token handling (§2.2). The pipeline
	// itself only reports ActionAwaitToken; Mode is carried here so the
	// substrate's scheduling code and the pipeline are configured as one
	// unit.
	Mode  token.Mode
	Hooks Hooks
}

// now reads the pipeline clock, tolerating an unset one (decision-only
// pipelines in tests and benchmarks never reach a stamped path).
func (p *Pipeline) now() int64 {
	if p.Clock == nil {
		return 0
	}
	return p.Clock.NowNanos()
}

// readClock, given to the token stage as its time, tells it to read
// the pipeline clock itself. Decide passes it, so a one-frame decision
// reads the clock only when its packet reaches the token stage, and
// Decide stays small enough to inline into its callers. DecideBatch
// passes the one reading it took for the whole batch instead.
const readClock = math.MinInt64

// Decide runs the decision stage for one arrived packet: token
// authorization and charging (§2.2) when the router has a token
// authority and the packet carries a token or the output port demands
// one, then the three-way classification. It does not touch buffers;
// mirroring is the caller's next stage (ReturnSegment +
// AppendTrailerSegment, or viper.Packet.ConsumeHead on the decoded
// substrate).
func (p *Pipeline) Decide(ts *TokenState, in *HopInput) Verdict {
	var v Verdict
	p.decide(&v, ts, in, nil, readClock)
	return v
}

// decide is the shared decision core behind Decide and DecideBatch,
// writing the verdict into *v: the batch kernel's slot, or Decide's
// result. A non-nil bs redirects the token-authorized count into the
// batch accumulator (flushed once per batch); nil passes it to the hook
// as 1. now is the time the token stage checks tokens at, or readClock.
func (p *Pipeline) decide(v *Verdict, ts *TokenState, in *HopInput, bs *BatchStats, now int64) {
	// Failover is checked before the token stage so a dead primary's
	// token is never charged: the chosen branch head re-enters the
	// pipeline carrying its own token, and exactly one branch per hop is
	// billed — the one actually taken. Only DAG segments consult the
	// link-health hook, so plain forwarding never pays the check.
	if p.Hooks.PortUp != nil && in.Seg.Flags.Has(viper.FlagTRE) &&
		viper.IsDAGInfo(in.Seg.PortInfo) && !p.Hooks.PortUp(in.Seg.Port) {
		*v = p.failover(in.Seg)
		return
	}
	if ts.active() && (len(in.Seg.PortToken) > 0 || ts.Requires(in.Seg.Port)) {
		p.checkToken(v, ts, in, bs, now)
		return
	}
	classify(v, in.Seg, ReverseUnknown)
}

// checkToken runs the cached-verdict token check and classifies a
// packet it authorizes into *v, recording the token's reverse use in
// the verdict. A token not yet cached gets ActionAwaitToken.
func (p *Pipeline) checkToken(v *Verdict, ts *TokenState, in *HopInput, bs *BatchStats, now int64) {
	seg := in.Seg
	if len(seg.PortToken) == 0 {
		*v = Verdict{Action: ActionDrop, Reason: stats.DropTokenDenied}
		return
	}
	if now == readClock {
		now = p.now()
	}
	reverse := seg.Flags.Has(viper.FlagRPF)
	switch d, spec := ts.cache.CheckSpec(seg.PortToken, seg.Port, seg.Priority, in.ChargeBytes, now, reverse); d {
	case token.Allowed:
		p.countTokenAuthorized(bs)
		rev := ReverseWithheld
		if spec.ReverseOK {
			rev = ReverseOK
		}
		classify(v, seg, rev)
	case token.Denied:
		*v = Verdict{Action: ActionDrop, Reason: stats.DropTokenDenied}
		if spec != nil {
			v.Account = spec.Account
		}
	default:
		*v = Verdict{Action: ActionAwaitToken}
	}
}

// countTokenAuthorized routes one authorization count to the batch
// accumulator when batching, straight to the hook otherwise.
func (p *Pipeline) countTokenAuthorized(bs *BatchStats) {
	if bs != nil {
		bs.TokenAuthorized++
		return
	}
	if p.Hooks.CountTokenAuthorized != nil {
		p.Hooks.CountTokenAuthorized(1)
	}
}

// InstallToken completes a deferred verification for a packet that got
// ActionAwaitToken: the full (expensive) HMAC verification runs, the
// verdict is cached, the account is charged on success, and the waiting
// packet's decision is returned. The substrate chooses when to call it —
// synchronously on livenet, where the HMAC cost is the verification
// latency the packet waits out, or TokenVerifyTime later on netsim. An
// Optimistic-mode caller invokes it for the charge and the cached
// verdict but ignores the returned decision (the packet already left).
func (p *Pipeline) InstallToken(ts *TokenState, in *HopInput) Verdict {
	return p.installToken(ts, in, nil)
}

// installToken is the shared body of InstallToken and
// InstallTokenBatched; bs selects batch-accumulated counting.
func (p *Pipeline) installToken(ts *TokenState, in *HopInput, bs *BatchStats) Verdict {
	seg := in.Seg
	reverse := seg.Flags.Has(viper.FlagRPF)
	if ts.cache.Install(seg.PortToken, seg.Port, seg.Priority, in.ChargeBytes, p.now(), reverse) == token.Allowed {
		p.countTokenAuthorized(bs)
		return Classify(seg)
	}
	return Verdict{
		Action: ActionDrop, Reason: stats.DropTokenDenied,
		Account: ts.account(seg.PortToken),
	}
}

// DropKind maps a forwarding-plane drop bucket to its flight-recorder
// taxonomy entry: queue overflows and token denials get their own kinds,
// everything else is a generic drop (the Event's Reason field keeps the
// bucket). This table is the single source of the mapping for both
// substrates; TestDropKindMapping pins every row.
func DropKind(reason stats.DropReason) ledger.Kind {
	if reason >= 0 && reason < stats.NumDropReasons {
		return dropKinds[reason]
	}
	return ledger.KindDrop
}

// dropKinds is indexed by stats.DropReason; unnamed rows are the zero
// value ledger.KindDrop.
var dropKinds = [stats.NumDropReasons]ledger.Kind{
	stats.DropQueueFull:   ledger.KindQueueOverflow,
	stats.DropTokenDenied: ledger.KindTokenDenied,
}
