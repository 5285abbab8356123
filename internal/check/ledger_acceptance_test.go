package check

import (
	"testing"

	"repro/internal/ledger"
	"repro/internal/stats"
)

// TestLedgerReconciliationAcrossSubstrates is the billing counterpart of
// the differential suite: for each seeded scenario, every router is
// token-guarded on every port, the directory bills each flow to a
// per-source-host account, and the identical tokened workload runs on
// both substrates. Three invariants must hold:
//
//   - reconciliation: on each substrate, the sum of per-account ledger
//     packet counts equals the forwarding plane's TokenAuthorized
//     counter — every billed packet was authorized and every authorized
//     packet was billed;
//   - agreement: the two substrates' ledgers match per account, packets
//     and bytes (charge sizes are defined pre-strip plus the arrival
//     header on both sides);
//   - cleanliness: an all-authorized run has zero token denials at
//     every layer.
//
// On any failure the flight recorders of both substrates are attached
// as evidence.
func TestLedgerReconciliationAcrossSubstrates(t *testing.T) {
	eachSeed(t, func(t *testing.T, sc *Scenario) { ledgerDifferential(t, sc, 0) })
}

// TestBatchScalarLedgerParity is the billing suite on tokened DAG
// routes with nothing failing: every DAG hop carries a token for each
// of its branches, and only the primary branch's token may be charged.
// Livenet charges in batch order (DecideBatch, InstallTokenBatched),
// netsim one arrival at a time; the ledgers must agree account by
// account, reconcile on each side, and neither side may record a
// failover. As with TestBatchScalarDecisionParity, the name is kept from
// when it compared livenet's one-frame and batched dataplanes; "Scalar"
// now means netsim's one decision per arrival.
func TestBatchScalarLedgerParity(t *testing.T) {
	eachSeed(t, func(t *testing.T, sc *Scenario) { ledgerDifferential(t, sc, 2) })
}

// ledgerDifferential runs one tokened scenario, routed with the given
// number of failover alternates per hop, on both substrates and checks
// the three billing invariants, with both flight recorders as evidence.
func ledgerDifferential(t *testing.T, sc *Scenario, alternates int) {
	net := BuildNetsimTokened(sc)
	routes, err := FlowRoutesAccountedAlt(net, sc, alternates)
	if err != nil {
		t.Fatalf("routing: %v", err)
	}
	simFR := ledger.NewFlightRecorder(0)
	net.SetFlightRecorder(simFR)
	simRes := RunNetsim(net, sc, routes)
	simLed := CollectNetsimLedger(net)
	simCtrs := NetsimRouterCounters(net, sc)

	liveRes, liveCtrs, liveLed, liveFR := RunLivenetLedgered(sc, routes, liveDeadline)

	failed := false
	report := func(format string, args ...any) {
		failed = true
		t.Errorf(format, args...)
	}

	// Tokens must be billing-neutral: deliveries, trailers, and the
	// shared counter surface agree exactly as in the untokened
	// differential run.
	for _, p := range Diff(simRes, liveRes, sc, "netsim", "livenet") {
		report("diff: %s", p)
	}
	for _, p := range stats.DiffCounters("netsim", "livenet", simCtrs, liveCtrs) {
		report("counters: %s", p)
	}

	// Reconciliation invariant, each substrate independently.
	for _, p := range ledger.Reconcile("netsim", simLed, simCtrs) {
		report("%s", p)
	}
	for _, p := range ledger.Reconcile("livenet", liveLed, liveCtrs) {
		report("%s", p)
	}

	// Cross-substrate billing agreement, account by account.
	for _, p := range DiffLedgers(simLed, liveLed, "netsim", "livenet") {
		report("ledger: %s", p)
	}

	// The guard was really exercised, and an all-authorized run denies
	// nothing and diverts nothing anywhere.
	if simCtrs.TokenAuthorized == 0 {
		report("netsim authorized no packets despite guarded routers")
	}
	if n := simCtrs.Drops[stats.DropTokenDenied]; n != 0 {
		report("netsim: %d token denials in an all-authorized run", n)
	}
	if n := liveCtrs.Drops[stats.DropTokenDenied]; n != 0 {
		report("livenet: %d token denials in an all-authorized run", n)
	}
	for a, e := range simLed.Totals() {
		if e.Denials != 0 {
			report("netsim account %d: %d ledger denials", a, e.Denials)
		}
	}
	for name, fr := range map[string]*ledger.FlightRecorder{"netsim": simFR, "livenet": liveFR} {
		if n := countKind(fr, ledger.KindFailover); n != 0 {
			report("%s: %d failovers with every link up", name, n)
		}
	}

	if failed {
		t.Logf("netsim flight recorder:\n%s", simFR.Format())
		t.Logf("livenet flight recorder:\n%s", liveFR.Format())
	}
}

// TestLedgerAccountsCoverSources pins the billing shape on one seed:
// every source host with at least one flow has its account present in
// both ledgers, with a nonzero byte charge.
func TestLedgerAccountsCoverSources(t *testing.T) {
	sc := Generate(7)
	net := BuildNetsimTokened(sc)
	routes, err := FlowRoutesAccounted(net, sc)
	if err != nil {
		t.Fatalf("routing: %v", err)
	}
	RunNetsim(net, sc, routes)
	simLed := CollectNetsimLedger(net)
	_, _, liveLed, _ := RunLivenetLedgered(sc, routes, liveDeadline)

	srcs := make(map[int]bool)
	for _, f := range sc.Flows {
		srcs[f.Src] = true
	}
	for src := range srcs {
		acct := AccountFor(Flow{Src: src})
		for name, led := range map[string]*ledger.Ledger{"netsim": simLed, "livenet": liveLed} {
			e, ok := led.Totals()[acct]
			if !ok || e.Packets == 0 || e.Bytes == 0 {
				t.Errorf("%s: account %d (host %d) has no charges: %+v", name, acct, src, e)
			}
		}
	}
	// One Collect sweep records one snapshot per guarded router.
	if got, want := simLed.Sweeps(), uint64(sc.NRouters); got != want {
		t.Errorf("netsim ledger sweeps = %d, want %d (one per router)", got, want)
	}
}
