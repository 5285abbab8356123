package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/ledger"
)

// ledgerDeadline bounds how long one livenet billing run may take to
// quiesce.
const ledgerDeadline = 10 * time.Second

// runLedger replays the conformance harness's seeded topologies with
// every router token-guarded on every port, runs the identical
// token-authorized workload through both substrates, and prints the
// per-account billing table from each side. It exits non-zero if a
// ledger fails reconciliation against its substrate's TokenAuthorized
// counter, or the two substrates bill differently — attaching the
// flight recorders as evidence.
func runLedger(seedList string) error {
	seeds, err := parseSeeds(seedList)
	if err != nil {
		return err
	}
	divergent := 0
	for _, seed := range seeds {
		sc := check.Generate(seed)
		net := check.BuildNetsimTokened(sc)
		routes, err := check.FlowRoutesAccounted(net, sc)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		simFR := ledger.NewFlightRecorder(0)
		net.SetFlightRecorder(simFR)
		check.RunNetsim(net, sc, routes)
		simLed := check.CollectNetsimLedger(net)
		simCtrs := check.NetsimRouterCounters(net, sc)
		_, liveCtrs, liveLed, liveFR := check.RunLivenetLedgered(sc, routes, ledgerDeadline)

		fmt.Printf("== seed %d: %d routers, %d hosts, %d flows, all ports guarded ==\n",
			seed, sc.NRouters, len(sc.HostRouter), len(sc.Flows))
		simLed.WriteTable(os.Stdout, fmt.Sprintf("netsim billing (token-authorized=%d)", simCtrs.TokenAuthorized))
		liveLed.WriteTable(os.Stdout, fmt.Sprintf("livenet billing (token-authorized=%d)", liveCtrs.TokenAuthorized))

		var problems []string
		problems = append(problems, ledger.Reconcile("netsim", simLed, simCtrs)...)
		problems = append(problems, ledger.Reconcile("livenet", liveLed, liveCtrs)...)
		for _, p := range check.DiffLedgers(simLed, liveLed, "netsim", "livenet") {
			problems = append(problems, "ledger diverges: "+p)
		}
		if len(problems) == 0 {
			fmt.Println("ledgers reconcile and agree across substrates")
		} else {
			divergent++
			for _, p := range problems {
				fmt.Println("PROBLEM:", p)
			}
			fmt.Printf("netsim flight recorder:\n%slivenet flight recorder:\n%s",
				simFR.Format(), liveFR.Format())
		}
		fmt.Println()
	}
	if divergent > 0 {
		return fmt.Errorf("%d seeds fail billing cross-check", divergent)
	}
	return nil
}
