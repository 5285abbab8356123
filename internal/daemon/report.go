package daemon

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/directory"
	"repro/internal/gateway"
	"repro/internal/ledger"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/udpnet"
)

// Report is one peer's evidence: a cumulative snapshot the peer ships
// to the directory every 500 ms while it runs, and once more, with
// Final set, after the drain barrier. The directory keeps each peer's
// latest; Verdict and FormatCluster read the decoded final ones
// (DecodeCluster).
type Report struct {
	Peer     string `json:"peer"`
	Seq      uint64 `json:"seq"`      // grows with every snapshot; the directory keeps the highest
	Final    bool   `json:"final"`    // taken after the drain barrier, on a quiet network
	Complete bool   `json:"complete"` // quiesce reached before the deadline

	// Flows is what the echo protocol on this peer's hosts observed: the
	// requests delivered here (host, return-route fingerprint, data
	// check), the replies that came home here, and garbled payloads and
	// failed sends. The peers' Flows merged (ClusterFlows) is the shape
	// a single-process run's check.Result has.
	Flows check.ResultSnapshot `json:"flows"`

	RouterUsage     map[string]map[uint32]token.Usage `json:"router_usage"`
	TokenAuthorized uint64                            `json:"token_authorized"`
	Forwarded       uint64                            `json:"forwarded"`
	RouterDrops     uint64                            `json:"router_drops"`

	Tunnels []TunnelReport `json:"tunnels,omitempty"`
	// Failovers counts in-header DAG diversions this peer's routers
	// performed (flight-recorder KindFailover events, DESIGN.md §15).
	Failovers uint64 `json:"failovers,omitempty"`

	// Gateways holds the stats of any gateway relays this peer runs
	// (gateway-mode clusters only; a peer can own both roles).
	Gateways []GatewayReport `json:"gateways,omitempty"`

	// Span-leak accounting: at quiesce TraceFinished must equal
	// TraceBegun + TraceResumed, or this peer leaked trace records.
	TraceBegun    uint64              `json:"trace_begun"`
	TraceResumed  uint64              `json:"trace_resumed"`
	TraceFinished uint64              `json:"trace_finished"`
	Spans         trace.SpansSnapshot `json:"spans"`

	// FlightTotal counts every anomaly the peer's flight recorder ever
	// saw; Flight holds the tail of the retained events.
	FlightTotal uint64         `json:"flight_total"`
	Flight      []ledger.Event `json:"flight,omitempty"`
}

// TunnelReport is one UDP tunnel a peer terminates: its global link
// index (the wire linkID), the peer owning the far end, and its
// counters.
type TunnelReport struct {
	LinkID uint16       `json:"link_id"`
	Peer   string       `json:"peer"`
	Stats  udpnet.Stats `json:"stats"`
}

// GatewayReport is one gateway relay a peer hosts: which role, on
// which scenario host, the relay's stream and transport counters, and
// its smoothed VMTP round-trip estimate toward each peer entity.
type GatewayReport struct {
	Role      string           `json:"role"`            // "ingress" or "egress"
	Host      string           `json:"host"`            // scenario host name, e.g. "h0"
	Socks     string           `json:"socks,omitempty"` // ingress listen address
	Stats     gateway.Stats    `json:"stats"`
	PeerRTTNs map[string]int64 `json:"peer_rtt_ns,omitempty"` // keyed by entity in hex
}

// Cluster is the directory's merged view with each peer's latest
// snapshot decoded.
type Cluster struct {
	Expect  int                // cluster size
	Reports map[string]*Report // latest snapshot per peer
	Stages  []trace.StageStats // every peer's span histograms merged stage by stage
	Bill    *ledger.Ledger     // the directory's billing database
}

// DecodeCluster decodes every peer's latest snapshot in cr.
func DecodeCluster(cr directory.ClusterReport) (*Cluster, error) {
	cl := &Cluster{Expect: cr.Expect, Reports: make(map[string]*Report, len(cr.Nodes)),
		Stages: cr.Stages, Bill: ledger.New()}
	cl.Bill.Record("directory", cr.Bill)
	for _, raw := range cr.Nodes {
		var r Report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("daemon: decode peer snapshot: %w", err)
		}
		cl.Reports[r.Peer] = &r
	}
	return cl, nil
}

// final counts the peers whose latest snapshot is final.
func (cl *Cluster) final() int {
	n := 0
	for _, r := range cl.Reports {
		if r.Final {
			n++
		}
	}
	return n
}

// peerNames returns the reporting peers in name order.
func peerNames(reports map[string]*Report) []string {
	names := make([]string, 0, len(reports))
	for n := range reports {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ClusterLedger rebuilds the network-wide per-account ledger from the
// peers' per-router sweeps — the same shape the single-process run's
// collector produces, so the two are directly diffable.
func ClusterLedger(reports map[string]*Report) *ledger.Ledger {
	led := ledger.New()
	for _, rep := range reports {
		for router, totals := range rep.RouterUsage {
			led.Record(router, totals)
		}
	}
	return led
}

// ClusterFlows merges the peers' delivery records into one
// check.Result, the shape the single-process run's echo protocol fills.
func ClusterFlows(reports map[string]*Report) *check.Result {
	res := check.NewResult()
	for _, rep := range reports {
		res.Merge(rep.Flows)
	}
	return res
}

// VerifyCluster checks a cluster run's merged evidence against the
// scenario: every peer sent its final snapshot, completed, and saw no
// garbled payload or failed send; the merged delivery record passes
// check.CheckReachability (every flow delivered exactly once at its
// destination host with intact data, and echoed exactly once back to
// its source); and the merged ledger reconciles against the merged
// forwarding plane (sum of per-account packets equals
// TokenAuthorized). Returns one line per violation; nil is a pass.
func VerifyCluster(sc *check.Scenario, total int, reports map[string]*Report) []string {
	var problems []string
	badf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	for i := 0; i < total; i++ {
		name := check.PeerName(i)
		rep, ok := reports[name]
		if !ok {
			badf("%s never reported", name)
			continue
		}
		if !rep.Final {
			badf("%s never sent its final snapshot (latest is seq %d)", name, rep.Seq)
		}
		if !rep.Complete {
			badf("%s hit its settle deadline before quiescing", name)
		}
		if rep.Flows.Garbled > 0 || rep.Flows.SendErrs > 0 {
			badf("%s: garbled=%d sendErrs=%d", name, rep.Flows.Garbled, rep.Flows.SendErrs)
		}
	}
	problems = append(problems, check.CheckReachability(ClusterFlows(reports), sc)...)

	led := ClusterLedger(reports)
	var c stats.Counters
	for _, rep := range reports {
		c.TokenAuthorized += rep.TokenAuthorized
	}
	problems = append(problems, ledger.Reconcile("cluster", led, c)...)
	return problems
}

// VerifyGatewayCluster checks the gateway half of a gateway-mode
// cluster run: exactly one ingress and one egress relay reported, on
// the scenario's deterministic gateway hosts; every stream closed
// cleanly (the run's transfer is hash-verified separately, so a
// reset here means the mesh tore a stream down mid-flight); the two
// relays' byte counters agree side to side and carry at least
// wantBytes in each direction; and the merged ledger billed the
// gateway account — stream traffic transited token-guarded routers
// and was charged like any other traffic.
func VerifyGatewayCluster(sc *check.Scenario, total int, reports map[string]*Report, wantBytes uint64) []string {
	var problems []string
	badf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	gin, geg := check.GatewayHosts(sc, total)
	var ingress, egress *GatewayReport
	for peer, rep := range reports {
		for i := range rep.Gateways {
			g := &rep.Gateways[i]
			switch g.Role {
			case "ingress":
				if ingress != nil {
					badf("duplicate ingress gateway report (from %s)", peer)
				}
				ingress = g
			case "egress":
				if egress != nil {
					badf("duplicate egress gateway report (from %s)", peer)
				}
				egress = g
			default:
				badf("%s: unknown gateway role %q", peer, g.Role)
			}
		}
	}
	if ingress == nil || egress == nil {
		badf("gateway reports incomplete: ingress=%v egress=%v", ingress != nil, egress != nil)
		return problems
	}
	if ingress.Host != check.HostName(gin) {
		badf("ingress ran on %s, want %s", ingress.Host, check.HostName(gin))
	}
	if egress.Host != check.HostName(geg) {
		badf("egress ran on %s, want %s", egress.Host, check.HostName(geg))
	}
	is, es := ingress.Stats, egress.Stats
	if is.Streams == 0 {
		badf("ingress opened no streams")
	}
	if is.Resets > 0 || es.Resets > 0 {
		badf("streams reset mid-flight: ingress=%d egress=%d", is.Resets, es.Resets)
	}
	if is.CleanCloses != es.CleanCloses || is.CleanCloses == 0 {
		badf("clean closes disagree: ingress=%d egress=%d", is.CleanCloses, es.CleanCloses)
	}
	if is.BytesIn != es.BytesOut || es.BytesIn != is.BytesOut {
		badf("stream byte conservation violated: ingress in/out %d/%d vs egress out/in %d/%d",
			is.BytesIn, is.BytesOut, es.BytesOut, es.BytesIn)
	}
	if is.BytesIn < wantBytes || es.BytesIn < wantBytes {
		badf("transferred %d up / %d down stream bytes, want >= %d each way",
			is.BytesIn, es.BytesIn, wantBytes)
	}
	if u := ClusterLedger(reports).Totals()[check.GatewayAccount]; u.Packets == 0 || u.Bytes == 0 {
		badf("gateway account %d unbilled in the merged ledger (usage %+v)", check.GatewayAccount, u)
	}
	return problems
}

// CompareWithSingleProcess runs the identical seeded workload on one
// in-process livenet substrate — the same routes, tokens, guards and
// accounts, fetched through the in-process directory — and diffs the
// cluster against it: the merged per-account ledger entry by entry,
// and the merged delivery record flow by flow (check.Diff: delivering
// host, return-route fingerprint, data check, reply host). An empty
// return means the distributed run billed every account and returned
// every flow along the same trailer as the single-process run did.
func CompareWithSingleProcess(seed int64, reports map[string]*Report, deadline time.Duration) ([]string, error) {
	sc := check.Generate(seed)
	inet := check.BuildNetsimTokened(sc)
	routes, err := check.FlowRoutesAccounted(inet, sc)
	if err != nil {
		return nil, fmt.Errorf("daemon: single-process routes: %w", err)
	}
	res, counters, led, _ := check.RunLivenetLedgered(sc, routes, deadline)
	if bad := check.CheckReachability(res, sc); len(bad) > 0 {
		return nil, fmt.Errorf("daemon: single-process reference run failed: %s", strings.Join(bad, "; "))
	}
	problems := check.DiffLedgers(led, ClusterLedger(reports), "single-process", "cluster")
	problems = append(problems, ledger.Reconcile("single-process", led, counters)...)
	problems = append(problems, check.Diff(res, ClusterFlows(reports), sc, "single-process", "cluster")...)
	return problems, nil
}

// Verdict applies every check the run calls for to the peers' final
// snapshots and returns the PASS line, or an error listing every
// violation. run is the run's config with its seed resolved. Every run
// gets VerifyCluster, VerifyClusterTelemetry and the directory's bill
// against the merged ledger; a gateway run adds VerifyGatewayCluster, a
// failover run requires in-header failovers, and only a plain run must
// match the single-process run of the same seed
// (CompareWithSingleProcess): a detour, and the gateway account, bill
// what the healthy single-process mesh does not.
func Verdict(cl *Cluster, run ClusterConfig) (string, error) {
	sc := check.Generate(run.Seed)
	problems := VerifyCluster(sc, cl.Expect, cl.Reports)
	problems = append(problems, check.DiffLedgers(cl.Bill, ClusterLedger(cl.Reports), "directory bill", "cluster ledger")...)
	problems = append(problems, VerifyClusterTelemetry(cl)...)
	pass := "cluster: PASS — all flows delivered and echoed exactly once; the ledger reconciles and matches the directory's bill"
	if run.GatewayBytes > 0 {
		problems = append(problems, VerifyGatewayCluster(sc, cl.Expect, cl.Reports, uint64(run.GatewayBytes))...)
		pass += "; the SOCKS transfer crossed the cluster hash-intact with the gateway account billed"
	}
	if run.Failover {
		var fo uint64
		for _, r := range cl.Reports {
			fo += r.Failovers
		}
		if fo == 0 {
			problems = append(problems, "failover smoke: tunnel died but no in-header failovers were recorded")
		}
		pass += fmt.Sprintf("; %d in-header failovers diverted every crossing transaction", fo)
	}
	if !run.Failover && run.GatewayBytes == 0 {
		diffs, err := CompareWithSingleProcess(run.Seed, cl.Reports, 15*time.Second)
		if err != nil {
			return "", err
		}
		problems = append(problems, diffs...)
		pass += "; every account and return route matches the single-process run"
	}
	if len(problems) > 0 {
		return "", fmt.Errorf("cluster verdict failed (%d problems):\n  %s",
			len(problems), strings.Join(problems, "\n  "))
	}
	return pass, nil
}
