package dataplane

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/viper"
)

// fuzzCounts is one side's observable counter totals, collected through
// the pipeline hooks: the batch side's arrive once per batch from
// FlushBatch, the scalar side's one frame at a time.
type fuzzCounts struct {
	drops [stats.NumDropReasons]uint64
	local uint64
	auth  uint64
}

func countingPipeline(c *fuzzCounts) Pipeline {
	return Pipeline{Node: "fuzz", Clock: fixedClock(1), Hooks: Hooks{
		CountDrop:            func(r stats.DropReason, n uint64) { c.drops[r] += n },
		CountLocal:           func(n uint64) { c.local += n },
		CountTokenAuthorized: func(n uint64) { c.auth += n },
	}}
}

// resolveScalar runs one frame through the scalar kernel exactly as a
// substrate would — Decide, the Block-mode Await resolution, then the
// Drop/Local accounting for terminal verdicts — and returns the settled
// verdict.
func resolveScalar(p *Pipeline, ts *TokenState, data []byte) Verdict {
	seg, _, err := DecodeHop(data)
	if err != nil {
		v := Verdict{Action: ActionDrop, Reason: stats.DropNotSirpent}
		p.Drop(v.Reason, 1, v.Account, nil, 0)
		return v
	}
	in := HopInput{InPort: 1, Seg: &seg, ChargeBytes: uint64(len(data))}
	v := p.Decide(ts, &in)
	if v.Action == ActionAwaitToken {
		v = p.InstallToken(ts, &in)
	}
	switch v.Action {
	case ActionDrop:
		p.Drop(v.Reason, 1, v.Account, nil, 0)
	case ActionLocal:
		p.Local(1, nil, 0)
	}
	return v
}

// FuzzDecideBatch is the batch-kernel equivalence fuzz: the input's
// first byte picks a batch size (1..8) and the rest splits into that
// many frame payloads, so batch boundaries, mixed drop/local/forward
// verdicts within one batch, and token-await deferrals splitting a batch
// all come from the fuzzer. The batch runs through DecideBatch +
// InstallTokenBatched + the batched accounting against one token state;
// the same frames run through N scalar Decide calls against an
// identically-configured independent token state. Everything observable
// must match frame for frame: the settled verdict (action, out port,
// drop reason, charged account), the decoded segment and remainder the
// surgery would consume, the counter totals, and the token cache's
// per-account usage (charge ordering included — a swapped charge order
// shows up as diverging totals once a budget edge is crossed) and
// verification counters (one uncached token repeated inside a batch is
// HMAC-verified once, then served from the verdict that cached).
func FuzzDecideBatch(f *testing.F) {
	seedAuth := token.NewAuthority([]byte("fuzz-key"))
	tok := seedAuth.Issue(token.Spec{Account: 7, Port: 5, ReverseOK: true})
	limited := seedAuth.Issue(token.Spec{Account: 9, Port: 5, Limit: 64, Nonce: 1})
	forged := token.NewAuthority([]byte("wrong-key")).Issue(token.Spec{Account: 7, Port: 5})
	// midway's budget runs out inside a batch; its limit needs the frame
	// length, which does not depend on the token's contents, so a
	// placeholder of the same size stands in until the length is known.
	midway := make([]byte, token.WireLen)
	routes := [][]viper.Segment{
		{{Port: 2, Flags: viper.FlagVNT}, {Port: viper.PortLocal}},
		{{Port: 5, Flags: viper.FlagVNT, PortToken: tok}, {Port: viper.PortLocal}},
		{{Port: 5, Flags: viper.FlagVNT, PortToken: limited}, {Port: viper.PortLocal}},
		{{Port: 5, Flags: viper.FlagVNT, PortToken: []byte{1, 2, 3, 4}}, {Port: viper.PortLocal}},
		{{Port: viper.PortLocal}},
		{{Port: 3, Flags: viper.FlagTRE | viper.FlagVNT, PortInfo: []byte{0, 1}}, {Port: viper.PortLocal}},
		{{Port: 5, Flags: viper.FlagVNT, PortToken: forged}, {Port: viper.PortLocal}},
		{{Port: 5, Flags: viper.FlagVNT, PortToken: midway}, {Port: viper.PortLocal}},
	}
	encode := func(route []viper.Segment, payload []byte) []byte {
		pkt := viper.NewPacket(route, payload)
		pkt.Trailer = []viper.Segment{{Port: viper.PortLocal}}
		b, err := pkt.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// The harness cuts the body into equal frames, so every shape's
	// payload is padded until all of them encode to the same length.
	payload := []byte("fuzz-batch-payload")
	var seeds [][]byte
	longest := 0
	for _, route := range routes {
		longest = max(longest, len(encode(route, payload)))
	}
	copy(midway, seedAuth.Issue(token.Spec{Account: 11, Port: 5, Limit: uint64(2*longest + longest/2), Nonce: 2}))
	for _, route := range routes {
		pad := longest - len(encode(route, payload))
		b := encode(route, append(bytes.Clone(payload), make([]byte, pad)...))
		if len(b) != longest {
			f.Fatalf("padded seed is %d bytes, want %d", len(b), longest)
		}
		seeds = append(seeds, b)
	}
	// The harness reads n = 1 + data[0]%8 frames, so a k-frame seed
	// leads with k-1: each shape alone, a mixed batch of all of them,
	// and one uncached token three times in one batch — valid, then
	// forged: every frame is deferred before the first is installed.
	batchOf := func(frames ...[]byte) []byte {
		return append([]byte{byte(len(frames) - 1)}, bytes.Join(frames, nil)...)
	}
	for _, s := range seeds {
		f.Add(batchOf(s))
	}
	f.Add(batchOf(seeds...))
	for _, s := range [][]byte{seeds[1], seeds[6]} {
		f.Add(batchOf(s, s, s))
	}
	// Tokens interleaved frame by frame, and midway's budget exhausted
	// on its third frame of the batch, between charges of the other
	// tokens.
	tokA, tokB, mid, plain := seeds[1], seeds[2], seeds[7], seeds[0]
	f.Add(batchOf(tokA, tokB, tokA, tokB, tokA, tokB))
	f.Add(batchOf(mid, tokA, mid, plain, mid, tokA, mid))
	f.Add(batchOf(mid, mid, mid, mid))

	auth := token.NewAuthority([]byte("fuzz-key"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%8)
		body := data[1:]
		frames := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			lo, hi := i*len(body)/n, (i+1)*len(body)/n
			frames = append(frames, body[lo:hi])
		}

		// Two independent, identically-configured token states: charges
		// on one side must not leak into the other.
		tsB := (*TokenState)(nil).WithAuthority(auth).WithRequired(5)
		tsS := (*TokenState)(nil).WithAuthority(auth).WithRequired(5)
		var cb, cs fuzzCounts
		pb := countingPipeline(&cb)
		ps := countingPipeline(&cs)

		// Batch side: decide all, then settle in batch order — deferral
		// resolution, drop/local accounting — then flush once.
		batch := make([]BatchFrame, n)
		for i, fr := range frames {
			batch[i] = BatchFrame{InPort: 1, ChargeBytes: uint64(len(fr)), Pkt: fr}
		}
		var bs BatchStats
		pb.DecideBatch(tsB, batch, &bs)
		settled := make([]Verdict, n)
		for i := range batch {
			v := batch[i].Verdict
			if v.Action == ActionAwaitToken {
				in := HopInput{InPort: 1, Seg: &batch[i].Seg, ChargeBytes: batch[i].ChargeBytes}
				v = pb.InstallTokenBatched(tsB, &in, &bs)
			}
			switch v.Action {
			case ActionDrop:
				pb.DropBatched(&bs, v.Reason, 1, v.Account, nil, 0)
			case ActionLocal:
				pb.LocalBatched(&bs, 1, nil, 0)
			}
			settled[i] = v
		}
		pb.FlushBatch(&bs)

		// Scalar side: the same frames, one at a time, in the same order.
		for i, fr := range frames {
			want := resolveScalar(&ps, tsS, fr)
			if !settled[i].Equal(want) {
				t.Fatalf("frame %d/%d: batch verdict %+v, scalar verdict %+v", i, n, settled[i], want)
			}
			seg, rest, err := DecodeHop(fr)
			if err != nil {
				continue
			}
			if !batch[i].Seg.Equal(&seg) {
				t.Fatalf("frame %d/%d: batch decoded segment %v, scalar %v", i, n, &batch[i].Seg, &seg)
			}
			if !bytes.Equal(batch[i].Rest, rest) {
				t.Fatalf("frame %d/%d: batch rest diverges from scalar", i, n)
			}
		}

		if cb != cs {
			t.Fatalf("counter totals diverge: batch %+v, scalar %+v", cb, cs)
		}
		if bt, st := tsB.Cache().AccountTotals(), tsS.Cache().AccountTotals(); !reflect.DeepEqual(bt, st) {
			t.Fatalf("token account totals diverge: batch %v, scalar %v", bt, st)
		}
		bv, bh := tsB.Cache().Metrics()
		sv, sh := tsS.Cache().Metrics()
		if bv != sv || bh != sh {
			t.Fatalf("token cache metrics diverge: batch %d verifies %d hits, scalar %d verifies %d hits", bv, bh, sv, sh)
		}
	})
}
