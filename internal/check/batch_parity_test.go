package check

import (
	"fmt"
	"testing"

	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/stats"
)

// TestBatchScalarDecisionParity is the batch-vs-scalar differential
// suite: each of the 60 seeded scenarios runs on all three substrates —
// event-driven netsim, scalar livenet, and batched livenet — and every
// observable must agree pairwise: delivery sets, delivering hosts,
// trailer fingerprints (i.e. the per-hop byte surgery), payload
// integrity, reply arrivals, and the full counter surface. On any
// divergence the hop-level traces of the disagreeing flows are attached
// from both livenet substrates.
func TestBatchScalarDecisionParity(t *testing.T) {
	const seeds = 60
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := Generate(seed)
			net := BuildNetsim(sc)
			routes, err := FlowRoutes(net, sc)
			if err != nil {
				t.Fatalf("routing: %v", err)
			}
			simRes := RunNetsim(net, sc, routes)
			simCtrs := NetsimRouterCounters(net, sc)

			scalRes, scalCtrs, scalRec := RunLivenetTraced(sc, routes, liveDeadline)
			batRes, batCtrs, batRec := RunLivenetTraced(sc, routes, liveDeadline, livenet.WithBatching())

			// Batched vs scalar is the tentpole claim; batched vs netsim
			// closes the triangle (scalar vs netsim is the pre-existing
			// differential test).
			for _, p := range Diff(scalRes, batRes, sc) {
				t.Errorf("scalar-vs-batched diff: %s", p)
			}
			for _, p := range Diff(simRes, batRes, sc) {
				t.Errorf("netsim-vs-batched diff: %s", p)
			}
			for _, p := range stats.DiffCounters("scalar", "batched", scalCtrs, batCtrs) {
				t.Errorf("counters: %s", p)
			}
			for _, p := range stats.DiffCounters("netsim", "batched", simCtrs, batCtrs) {
				t.Errorf("counters: %s", p)
			}
			for _, p := range CheckReachability(batRes, sc) {
				t.Errorf("batched: %s", p)
			}
			if _, _, _, se := batRes.Counts(); se != 0 {
				t.Errorf("batched: %d send errors", se)
			}

			ids := DivergingFlows(scalRes, batRes, sc)
			ids = append(ids, DivergingFlows(simRes, batRes, sc)...)
			if len(ids) > 0 {
				t.Logf("trace evidence for diverging flows:\n%s%s",
					TraceEvidence("scalar", scalRec, ids),
					TraceEvidence("batched", batRec, ids))
			}
		})
	}
}

// TestBatchScalarLedgerParity is the billing half of batch parity: the
// tokened workload (every router guarded on every port, per-source-host
// accounts) runs on netsim and on the batched livenet substrate, and the
// swept ledgers must agree account by account — packets, bytes, denials
// — while each side independently reconciles against its TokenAuthorized
// counter. This is what pins the batch kernel's charge ordering: token
// charges land in Decide/Install batch order, and any double- or
// missed-charge shows up as a per-account byte divergence.
func TestBatchScalarLedgerParity(t *testing.T) {
	const seeds = 60
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := Generate(seed)
			net := BuildNetsimTokened(sc)
			routes, err := FlowRoutesAccounted(net, sc)
			if err != nil {
				t.Fatalf("routing: %v", err)
			}
			simRes := RunNetsim(net, sc, routes)
			simLed := CollectNetsimLedger(net)
			simCtrs := NetsimRouterCounters(net, sc)

			batRes, batCtrs, batLed, batFR := RunLivenetLedgered(sc, routes, liveDeadline, livenet.WithBatching())

			failed := false
			report := func(format string, args ...any) {
				failed = true
				t.Errorf(format, args...)
			}
			for _, p := range Diff(simRes, batRes, sc) {
				report("diff: %s", p)
			}
			for _, p := range stats.DiffCounters("netsim", "batched", simCtrs, batCtrs) {
				report("counters: %s", p)
			}
			for _, p := range ledger.Reconcile("batched", batLed, batCtrs) {
				report("%s", p)
			}
			for _, p := range DiffLedgers(simLed, batLed) {
				report("ledger: %s", p)
			}
			if n := batCtrs.Drops[stats.DropTokenDenied]; n != 0 {
				report("batched: %d token denials in an all-authorized run", n)
			}
			if failed {
				t.Logf("batched flight recorder:\n%s", batFR.Format())
			}
		})
	}
}
