package check

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/viper"
)

// The token-authorized variant of the differential suite: every router
// of a scenario is guarded by its own administrative-domain key, the
// directory issues unlimited ReverseOK tokens per router hop, and every
// flow is billed to a per-source-host account. Both substrates then run
// the identical tokened workload, and the per-account ledgers swept from
// their token caches must agree entry by entry — and reconcile against
// the forwarding plane's TokenAuthorized counter on each side.

// TokenKey returns the deterministic administrative-domain key of
// router i, shared between the substrates so tokens minted against the
// netsim directory verify on the livenet routers.
func TokenKey(i int) []byte {
	return []byte(fmt.Sprintf("check-domain-%s", RouterName(i)))
}

// AccountFor returns the billing account a flow is charged to: one
// account per source host, so scenarios with several flows from one
// host exercise cross-token and cross-router merging in the ledger.
func AccountFor(f Flow) uint32 { return uint32(1000 + f.Src) }

// RouterPorts collects every port allocated on router ri — trunk ends
// and host attachments — i.e. the ports a guarded router must demand
// tokens on.
func RouterPorts(sc *Scenario, ri int) []uint8 {
	var ports []uint8
	for _, l := range sc.Links {
		if l.A == ri {
			ports = append(ports, l.APort)
		}
		if l.B == ri {
			ports = append(ports, l.BPort)
		}
	}
	for i, hr := range sc.HostRouter {
		if hr == ri {
			ports = append(ports, sc.HostPort[i])
		}
	}
	sort.Slice(ports, func(a, b int) bool { return ports[a] < ports[b] })
	return ports
}

// BuildNetsimTokened realizes a scenario like BuildNetsim but with every
// router in Block token mode and guarded on all its ports, so tokenless
// packets cannot transit anywhere.
func BuildNetsimTokened(sc *Scenario) *core.Internetwork {
	net := core.New(sc.Seed)
	for i := 0; i < sc.NRouters; i++ {
		net.AddRouter(RouterName(i), router.Config{TokenMode: token.Block})
	}
	for i := range sc.HostRouter {
		net.AddHost(HostName(i))
	}
	for _, l := range sc.Links {
		net.Connect(RouterName(l.A), l.APort, RouterName(l.B), l.BPort, LinkRateBps, linkProp)
	}
	for i, ri := range sc.HostRouter {
		net.Connect(HostName(i), 1, RouterName(ri), sc.HostPort[i], LinkRateBps, linkProp)
	}
	for i := 0; i < sc.NRouters; i++ {
		net.GuardRouter(RouterName(i), TokenKey(i), RouterPorts(sc, i)...)
	}
	return net
}

// FlowRoutesAccounted is FlowRoutes with each query carrying the flow's
// billing account, so the directory attaches a port token for every
// guarded router hop. The tokened segment lists feed both substrates.
func FlowRoutesAccounted(net *core.Internetwork, sc *Scenario) (map[uint64][]viper.Segment, error) {
	return FlowRoutesAccountedAlt(net, sc, 0)
}

// FlowRoutesAccountedAlt is FlowRoutesAccounted with in-header failover
// alternates: DAG hops carry a token for every router on every branch,
// all billed to the flow's account.
func FlowRoutesAccountedAlt(net *core.Internetwork, sc *Scenario, alternates int) (map[uint64][]viper.Segment, error) {
	routes := make(map[uint64][]viper.Segment, len(sc.Flows))
	for _, f := range sc.Flows {
		rs, err := net.Routes(directory.Query{
			From:       HostName(f.Src),
			To:         HostName(f.Dst),
			Priority:   f.Prio,
			Account:    AccountFor(f),
			Alternates: alternates,
		})
		if err != nil {
			return nil, fmt.Errorf("route %s->%s: %w", HostName(f.Src), HostName(f.Dst), err)
		}
		if len(rs) == 0 {
			return nil, fmt.Errorf("route %s->%s: no route", HostName(f.Src), HostName(f.Dst))
		}
		routes[f.ID] = rs[0].Segments
	}
	return routes, nil
}

// CollectNetsimLedger sweeps a drained netsim run's token caches into a
// fresh ledger.
func CollectNetsimLedger(net *core.Internetwork) *ledger.Ledger {
	l := ledger.New()
	net.LedgerCollector(l).Collect()
	return l
}

// RunLivenetLedgered realizes the tokened scenario on the goroutine
// substrate: routers get the same per-router domain keys as the netsim
// guards and demand tokens on the same ports, a flight recorder captures
// anomalies for evidence, and the token caches are swept into a ledger
// at quiesce.
func RunLivenetLedgered(sc *Scenario, routes map[uint64][]viper.Segment, deadline time.Duration) (*Result, stats.Counters, *ledger.Ledger, *ledger.FlightRecorder) {
	return runLivenetLedgered(sc, routes, deadline, func(*LiveNet) {})
}

// runLivenetLedgered is RunLivenetLedgered with a prepare hook that runs
// on the built network before any flow is injected (fault tests sever
// links there).
func runLivenetLedgered(sc *Scenario, routes map[uint64][]viper.Segment, deadline time.Duration, prepare func(*LiveNet)) (*Result, stats.Counters, *ledger.Ledger, *ledger.FlightRecorder) {
	fr := ledger.NewFlightRecorder(0)
	col := ledger.NewCollector(ledger.New())
	ln := BuildLivenet(sc, 0, 1, livenet.DefaultLinkDepth, livenet.WithFlightRecorder(fr), livenet.WithLedgerCollector(col))
	defer ln.Net.Stop()
	ln.GuardTokens(sc)
	prepare(ln)
	res := NewResult()
	ln.InstallEcho(sc, res)
	for _, f := range sc.Flows {
		if err := ln.Hosts[f.Src].Send(routes[f.ID], FlowData(f)); err != nil {
			res.AddSendErr()
		}
	}
	ln.Settle(res, deadline)
	col.Collect()
	return res, ln.RouterCounters(), col.Ledger(), fr
}

// DiffLedgers compares two runs' per-account billing totals entry by
// entry, returning one line per divergence with each side named as
// given.
func DiffLedgers(a, b *ledger.Ledger, aName, bName string) []string {
	aT, bT := a.Totals(), b.Totals()
	accounts := make(map[uint32]bool)
	for acct := range aT {
		accounts[acct] = true
	}
	for acct := range bT {
		accounts[acct] = true
	}
	sorted := make([]uint32, 0, len(accounts))
	for acct := range accounts {
		sorted = append(sorted, acct)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out []string
	for _, acct := range sorted {
		x, y := aT[acct], bT[acct]
		if x != y {
			out = append(out, fmt.Sprintf(
				"account %d: %s {pkts=%d bytes=%d denials=%d} vs %s {pkts=%d bytes=%d denials=%d}",
				acct, aName, x.Packets, x.Bytes, x.Denials, bName, y.Packets, y.Bytes, y.Denials))
		}
	}
	return out
}
