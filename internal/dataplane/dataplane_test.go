package dataplane

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ledger"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/viper"
)

// fixedClock is a deterministic clock.Source for decision tests.
type fixedClock int64

func (c fixedClock) NowNanos() int64 { return int64(c) }

// TestDropKindMapping pins every row of the shared drop-reason →
// flight-recorder-kind table. Both substrates record anomalies through
// this single mapping, so a change here alters the exported taxonomy of
// every flight recorder; each row is intentional.
func TestDropKindMapping(t *testing.T) {
	want := map[stats.DropReason]ledger.Kind{
		stats.DropNoSegment:   ledger.KindDrop,
		stats.DropBadPort:     ledger.KindDrop,
		stats.DropIfBlocked:   ledger.KindDrop,
		stats.DropQueueFull:   ledger.KindQueueOverflow,
		stats.DropTokenDenied: ledger.KindTokenDenied,
		stats.DropAborted:     ledger.KindDrop,
		stats.DropOversize:    ledger.KindDrop,
		stats.DropTxError:     ledger.KindDrop,
		stats.DropNotSirpent:  ledger.KindDrop,
		stats.DropLinkDown:    ledger.KindDrop,
	}
	if len(want) != int(stats.NumDropReasons) {
		t.Fatalf("mapping table covers %d reasons, stats has %d — add the new row here",
			len(want), stats.NumDropReasons)
	}
	for _, reason := range stats.DropReasons() {
		if got := DropKind(reason); got != want[reason] {
			t.Errorf("DropKind(%v) = %v, want %v", reason, got, want[reason])
		}
	}
	// Out-of-range reasons degrade to the generic kind, never panic.
	if got := DropKind(stats.NumDropReasons + 7); got != ledger.KindDrop {
		t.Errorf("DropKind(out of range) = %v, want %v", got, ledger.KindDrop)
	}
	if got := DropKind(-1); got != ledger.KindDrop {
		t.Errorf("DropKind(-1) = %v, want %v", got, ledger.KindDrop)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		seg  viper.Segment
		want Verdict
	}{
		{"forward", viper.Segment{Port: 7}, Verdict{Action: ActionForward, OutPort: 7}},
		{"local", viper.Segment{Port: viper.PortLocal}, Verdict{Action: ActionLocal}},
		{"tree", viper.Segment{Port: 3, Flags: viper.FlagTRE}, Verdict{Action: ActionTree, OutPort: 3}},
		// Tree wins over the local port value: a tree segment's port
		// field is unused.
		{"tree-local-port", viper.Segment{Port: viper.PortLocal, Flags: viper.FlagTRE},
			Verdict{Action: ActionTree, OutPort: viper.PortLocal}},
	}
	for _, tc := range cases {
		if got := Classify(&tc.seg); !got.Equal(tc.want) {
			t.Errorf("%s: Classify = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestDecideNoAuthority checks the tokens-disabled fast path: with a nil
// TokenState the pipeline ignores tokens entirely and just classifies.
func TestDecideNoAuthority(t *testing.T) {
	var p Pipeline
	seg := viper.Segment{Port: 9, PortToken: []byte("irrelevant")}
	in := HopInput{InPort: 1, Seg: &seg, ChargeBytes: 100}
	if got := p.Decide(nil, &in); !got.Equal(Verdict{Action: ActionForward, OutPort: 9}) {
		t.Fatalf("nil token state: Decide = %+v, want plain forward", got)
	}
}

// TestDecideTokenFlow walks the full §2.2 token lifecycle through the
// pipeline: tokenless packets on a required port are denied; an uncached
// valid token yields ActionAwaitToken, InstallToken authorizes it and
// fires the counter hook; the next packet is served from cache; a forged
// token is denied with no account attribution; exhausting the byte limit
// denies with the account attached.
func TestDecideTokenFlow(t *testing.T) {
	auth := token.NewAuthority([]byte("test-key"))
	ts := (*TokenState)(nil).WithAuthority(auth).WithRequired(5)
	authorized := 0
	p := Pipeline{
		Node:  "t",
		Clock: fixedClock(1000),
		Hooks: Hooks{CountTokenAuthorized: func(n uint64) { authorized += int(n) }},
	}

	// Tokenless on a required port: denied without any account.
	plain := viper.Segment{Port: 5}
	v := p.Decide(ts, &HopInput{InPort: 1, Seg: &plain, ChargeBytes: 64})
	if v.Action != ActionDrop || v.Reason != stats.DropTokenDenied || v.Account != 0 {
		t.Fatalf("tokenless on required port: %+v", v)
	}
	// Tokenless on an unrestricted port: forwarded.
	other := viper.Segment{Port: 6}
	if v := p.Decide(ts, &HopInput{InPort: 1, Seg: &other, ChargeBytes: 64}); v.Action != ActionForward {
		t.Fatalf("tokenless on open port: %+v", v)
	}

	// Valid token, uncached: the decision defers to InstallToken.
	tok := auth.Issue(token.Spec{Account: 42, Port: 5, Limit: 150})
	carry := viper.Segment{Port: 5, PortToken: tok}
	in := HopInput{InPort: 1, Seg: &carry, ChargeBytes: 100}
	if v := p.Decide(ts, &in); v.Action != ActionAwaitToken {
		t.Fatalf("uncached token: %+v, want await", v)
	}
	if v := p.InstallToken(ts, &in); v.Action != ActionForward || v.OutPort != 5 {
		t.Fatalf("InstallToken: %+v, want forward on 5", v)
	}
	if authorized != 1 {
		t.Fatalf("CountTokenAuthorized fired %d times, want 1", authorized)
	}

	// Second packet: served from cache, still authorized and charged.
	in2 := HopInput{InPort: 1, Seg: &carry, ChargeBytes: 40}
	if v := p.Decide(ts, &in2); v.Action != ActionForward {
		t.Fatalf("cached token: %+v", v)
	}
	if authorized != 2 {
		t.Fatalf("CountTokenAuthorized fired %d times, want 2", authorized)
	}

	// Third packet exceeds the 150-byte limit: denied, billed account
	// attributed on the verdict for the flight recorder.
	in3 := HopInput{InPort: 1, Seg: &carry, ChargeBytes: 40}
	if v := p.Decide(ts, &in3); v.Action != ActionDrop || v.Reason != stats.DropTokenDenied || v.Account != 42 {
		t.Fatalf("over-limit token: %+v, want drop attributed to 42", v)
	}

	// Forged token: denied at install, unattributed.
	forged := append([]byte(nil), tok...)
	forged[len(forged)-1] ^= 0xFF
	bad := viper.Segment{Port: 5, PortToken: forged}
	inBad := HopInput{InPort: 1, Seg: &bad, ChargeBytes: 10}
	if v := p.Decide(ts, &inBad); v.Action != ActionAwaitToken {
		t.Fatalf("uncached forged token: %+v, want await", v)
	}
	if v := p.InstallToken(ts, &inBad); v.Action != ActionDrop || v.Account != 0 {
		t.Fatalf("forged InstallToken: %+v, want unattributed drop", v)
	}
}

// TestReturnSegment covers the mirror policy: the return segment takes
// the arrival port, the consumed segment's priority, only the DIB flag,
// and the packet's token — copied or aliased per the substrate — unless
// the hop's verdict, or when the verdict does not know the cached spec,
// denies reverse-route use.
func TestReturnSegment(t *testing.T) {
	seg := viper.Segment{
		Port: 9, Priority: 3,
		Flags:     viper.FlagVNT | viper.FlagDIB | viper.FlagRPF,
		PortToken: []byte{1, 2, 3, 4},
	}
	info := []byte{0xAA, 0xBB}

	ret := returnSegment(4, &seg, info, ReverseUnknown, nil, true)
	if ret.Port != 4 || ret.Priority != 3 || ret.Flags != viper.FlagDIB {
		t.Fatalf("mirrored fields wrong: %+v", ret)
	}
	if &ret.PortInfo[0] != &info[0] {
		t.Fatal("portInfo must alias the caller's buffer")
	}
	if !bytes.Equal(ret.PortToken, seg.PortToken) {
		t.Fatalf("token not mirrored: %x", ret.PortToken)
	}
	if &ret.PortToken[0] == &seg.PortToken[0] {
		t.Fatal("copyToken=true must copy the token bytes")
	}

	ret = returnSegment(4, &seg, nil, ReverseUnknown, nil, false)
	if &ret.PortToken[0] != &seg.PortToken[0] {
		t.Fatal("copyToken=false must alias the token bytes")
	}

	// A cached spec with ReverseOK=false withholds the token from the
	// trailer; with ReverseOK=true it rides along. The hop's verdict
	// learned the same from its check, and the verdict alone decides
	// the same way, with the cache not consulted.
	auth := token.NewAuthority([]byte("rk"))
	p := Pipeline{}
	for _, reverseOK := range []bool{false, true} {
		cache := token.NewCache(auth)
		tok := auth.Issue(token.Spec{Account: 7, Port: 9, ReverseOK: reverseOK})
		cache.Prime(tok)
		carry := viper.Segment{Port: 9, PortToken: tok}
		ret := returnSegment(4, &carry, nil, ReverseUnknown, cache, true)
		if gotTok := len(ret.PortToken) > 0; gotTok != reverseOK {
			t.Errorf("ReverseOK=%v: token in trailer = %v", reverseOK, gotTok)
		}
		ts := (*TokenState)(nil).WithAuthority(auth)
		ts.Prime(tok)
		v := p.Decide(ts, &HopInput{InPort: 4, Seg: &carry})
		want := map[bool]Reverse{false: ReverseWithheld, true: ReverseOK}[reverseOK]
		if v.Action != ActionForward || v.Reverse != want {
			t.Fatalf("ReverseOK=%v: verdict %+v, want a forward with Reverse %d", reverseOK, v, want)
		}
		// A nil cache: only the verdict can know.
		ret = returnSegment(4, &carry, nil, v.Reverse, nil, true)
		if gotTok := len(ret.PortToken) > 0; gotTok != reverseOK {
			t.Errorf("ReverseOK=%v, from the verdict: token in trailer = %v", reverseOK, gotTok)
		}
	}

	// An uncached (optimistically admitted) token rides along and is
	// checked on the return trip.
	unknown := viper.Segment{Port: 9, PortToken: []byte{9, 9, 9}}
	if ret := returnSegment(4, &unknown, nil, ReverseUnknown, token.NewCache(auth), true); len(ret.PortToken) == 0 {
		t.Fatal("uncached token must ride the trailer")
	}
}

// TestDropHookOrder pins the Drop sink ordering — counter, then flight
// event, then trace terminal hop — and the event fields each sink sees.
func TestDropHookOrder(t *testing.T) {
	var order []string
	fr := ledger.NewFlightRecorder(8)
	p := Pipeline{
		Node:  "n1",
		Clock: fixedClock(5000),
		Hooks: Hooks{
			CountDrop: func(reason stats.DropReason, n uint64) {
				order = append(order, fmt.Sprintf("count:%s:%d", reason, n))
			},
			Flight: func() *ledger.FlightRecorder {
				order = append(order, "flight")
				return fr
			},
		},
	}
	pt := &trace.PacketTrace{Hops: make([]trace.HopEvent, 0, 4)}
	p.Drop(stats.DropTokenDenied, 3, 42, pt, 4000)

	wantOrder := []string{"count:token-denied:1", "flight"}
	if len(order) != len(wantOrder) || order[0] != wantOrder[0] || order[1] != wantOrder[1] {
		t.Fatalf("sink order = %v, want %v", order, wantOrder)
	}
	evs := fr.Events()
	if len(evs) != 1 {
		t.Fatalf("flight events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Node != "n1" || ev.Port != 3 || ev.Kind != ledger.KindTokenDenied ||
		ev.Reason != "token-denied" || ev.Account != 42 || ev.At != 5000 {
		t.Fatalf("flight event = %+v", ev)
	}
	if len(pt.Hops) != 1 {
		t.Fatalf("trace hops = %d, want 1", len(pt.Hops))
	}
	hop := pt.Hops[0]
	if hop.Action != trace.ActionDrop || hop.Reason != stats.DropTokenDenied ||
		hop.InPort != 3 || hop.At != 5000 || hop.LatencyNs != 1000 {
		t.Fatalf("trace hop = %+v", hop)
	}
}

// TestZeroPipeline checks that a zero-value pipeline (no clock, no
// hooks) survives every entry point — the configuration benchmarks and
// decision-only tests rely on.
func TestZeroPipeline(t *testing.T) {
	var p Pipeline
	seg := viper.Segment{Port: 2}
	in := HopInput{InPort: 1, Seg: &seg}
	if v := p.Decide(nil, &in); v.Action != ActionForward {
		t.Fatalf("zero pipeline Decide = %+v", v)
	}
	p.Drop(stats.DropBadPort, 1, 0, nil, 0)
	p.Local(1, nil, 0)
	p.TraceForward(nil, 1, 2, 0)
	p.CloseFanout(nil, 1, 2, 0)
}

func TestActionString(t *testing.T) {
	want := map[Action]string{
		ActionForward: "forward", ActionLocal: "local", ActionDrop: "drop",
		ActionTree: "tree", ActionAwaitToken: "await-token", Action(99): "unknown",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("Action(%d).String() = %q, want %q", a, a.String(), s)
		}
	}
}

// TestWithAuthorityForgetsVerdicts pins that a key rotation never
// serves a verdict cached under the old key: the token checked last
// before the rotation is unverified after it.
func TestWithAuthorityForgetsVerdicts(t *testing.T) {
	auth := token.NewAuthority([]byte("old-key"))
	ts := (*TokenState)(nil).WithAuthority(auth)
	tok := auth.Issue(token.Spec{Account: 3, Port: 5})
	ts.Prime(tok)
	carry := viper.Segment{Port: 5, PortToken: tok}
	p := Pipeline{}
	if v := p.Decide(ts, &HopInput{InPort: 1, Seg: &carry}); v.Action != ActionForward {
		t.Fatalf("before rotation: %+v, want forward", v)
	}
	rotated := ts.WithAuthority(token.NewAuthority([]byte("new-key")))
	if v := p.Decide(rotated, &HopInput{InPort: 1, Seg: &carry}); v.Action != ActionAwaitToken {
		t.Fatalf("after rotation: %+v, want await", v)
	}
	if v := p.InstallToken(rotated, &HopInput{InPort: 1, Seg: &carry}); v.Action != ActionDrop {
		t.Fatalf("old-key token under the new key: %+v, want drop", v)
	}
}

// countingClock reads a fixed time and counts its reads.
type countingClock struct{ reads int }

func (c *countingClock) NowNanos() int64 { c.reads++; return 1 }

// TestDecideBatchReadsClockOnce pins the batch contract's clock rule: a
// batch reads the clock at most once, however many of its frames reach
// the token stage.
func TestDecideBatchReadsClockOnce(t *testing.T) {
	auth := token.NewAuthority([]byte("clock-key"))
	ts := (*TokenState)(nil).WithAuthority(auth)
	tok := auth.Issue(token.Spec{Account: 3, Port: 5})
	ts.Prime(tok)
	enc := func(seg viper.Segment) []byte {
		b, err := viper.NewPacket([]viper.Segment{seg, {Port: viper.PortLocal}}, []byte("x")).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := enc(viper.Segment{Port: 5, Flags: viper.FlagVNT})
	tokened := enc(viper.Segment{Port: 5, Flags: viper.FlagVNT, PortToken: tok})
	for _, frames := range [][][]byte{
		{plain, plain, plain},
		{plain, tokened, tokened, plain, tokened},
	} {
		clk := &countingClock{}
		p := Pipeline{Clock: clk}
		batch := make([]BatchFrame, len(frames))
		for i, fr := range frames {
			batch[i] = BatchFrame{InPort: 1, ChargeBytes: uint64(len(fr)), Pkt: fr}
		}
		var bs BatchStats
		p.DecideBatch(ts, batch, &bs)
		for i := range batch {
			if batch[i].Verdict.Action != ActionForward {
				t.Fatalf("frame %d: %+v, want forward", i, batch[i].Verdict)
			}
		}
		if clk.reads > 1 {
			t.Fatalf("%d frames read the clock %d times, want at most 1", len(frames), clk.reads)
		}
	}
}

// returnSegment is ReturnSegment into a fresh segment, for tests that
// compare its result as a value.
func returnSegment(inPort uint8, seg *viper.Segment, portInfo []byte, rev Reverse, cache *token.Cache, copyToken bool) viper.Segment {
	var ret viper.Segment
	ReturnSegment(&ret, inPort, seg, portInfo, rev, cache, copyToken)
	return ret
}
