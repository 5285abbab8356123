package daemon

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/check"
	"repro/internal/gateway"
	"repro/internal/ledger"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/udpnet"
)

// Report is one peer's end-of-run evidence, posted to the directory
// and merged by the launcher into a cluster-wide verdict.
type Report struct {
	Peer     string `json:"peer"`
	Complete bool   `json:"complete"` // quiesce reached before the deadline

	Delivered  map[uint64]string `json:"delivered"` // flow -> receiving host
	Replied    map[uint64]string `json:"replied"`   // flow -> origin host that saw the echo
	DataBad    int               `json:"data_bad,omitempty"`
	Duplicates int               `json:"duplicates,omitempty"`
	Garbled    int               `json:"garbled,omitempty"`
	SendErrs   int               `json:"send_errs,omitempty"`

	RouterUsage     map[string]map[uint32]token.Usage `json:"router_usage"`
	TokenAuthorized uint64                            `json:"token_authorized"`
	Forwarded       uint64                            `json:"forwarded"`
	RouterDrops     uint64                            `json:"router_drops"`

	Tunnels       map[uint16]udpnet.Stats `json:"tunnels,omitempty"`
	TunnelDropped uint64                  `json:"tunnel_dropped"`
	Anomalies     uint64                  `json:"anomalies"`
	// Failovers counts in-header DAG diversions this peer's routers
	// performed (flight-recorder KindFailover events, DESIGN.md §15).
	Failovers uint64 `json:"failovers,omitempty"`

	// Gateways holds the stats of any gateway relays this peer ran
	// (gateway-mode clusters only; a peer can own both roles).
	Gateways []GatewayReport `json:"gateways,omitempty"`
}

// GatewayReport is the end-of-run snapshot of one gateway relay a peer
// hosted: which role, on which scenario host, and the relay's stream
// and transport counters.
type GatewayReport struct {
	Role  string        `json:"role"`            // "ingress" or "egress"
	Host  string        `json:"host"`            // scenario host name, e.g. "h0"
	Socks string        `json:"socks,omitempty"` // ingress listen address
	Stats gateway.Stats `json:"stats"`
}

// DecodeReports unmarshals the directory's raw report map into typed
// per-peer reports.
func DecodeReports(raw map[string]json.RawMessage) (map[string]*Report, error) {
	out := make(map[string]*Report, len(raw))
	for peer, body := range raw {
		var r Report
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("daemon: report from %s: %w", peer, err)
		}
		out[peer] = &r
	}
	return out, nil
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

// VerifyCluster checks a cluster run's merged evidence against the
// scenario: every peer reported and completed; every flow was
// delivered exactly once at its destination host with intact data and
// echoed exactly once back to its source; nothing was garbled,
// dropped, or duplicated; and the merged ledger reconciles against
// the merged forwarding plane (sum of per-account packets equals
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
		if !rep.Complete {
			badf("%s hit its settle deadline before quiescing", name)
		}
		if rep.Garbled > 0 || rep.SendErrs > 0 || rep.DataBad > 0 || rep.Duplicates > 0 {
			badf("%s: garbled=%d sendErrs=%d dataBad=%d duplicates=%d",
				name, rep.Garbled, rep.SendErrs, rep.DataBad, rep.Duplicates)
		}
	}

	delivered := make(map[uint64][]string)
	replied := make(map[uint64][]string)
	for _, rep := range reports {
		for id, host := range rep.Delivered {
			delivered[id] = append(delivered[id], host)
		}
		for id, host := range rep.Replied {
			replied[id] = append(replied[id], host)
		}
	}
	for _, f := range sc.Flows {
		switch hosts := delivered[f.ID]; {
		case len(hosts) == 0:
			badf("flow %d: request never delivered (lost transaction)", f.ID)
		case len(hosts) > 1:
			badf("flow %d: delivered %d times (%v)", f.ID, len(hosts), hosts)
		case hosts[0] != check.HostName(f.Dst):
			badf("flow %d: delivered to %s, want %s", f.ID, hosts[0], check.HostName(f.Dst))
		}
		switch hosts := replied[f.ID]; {
		case len(hosts) == 0:
			badf("flow %d: reply never returned (lost transaction)", f.ID)
		case len(hosts) > 1:
			badf("flow %d: replied %d times (%v)", f.ID, len(hosts), hosts)
		case hosts[0] != check.HostName(f.Src):
			badf("flow %d: reply landed at %s, want origin %s", f.ID, hosts[0], check.HostName(f.Src))
		}
	}

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
// cleanly (the launcher's transfer is hash-verified separately, so a
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
// cluster's merged per-account ledger against it entry by entry. An
// empty return means the distributed run billed every account exactly
// as the single-process run did.
func CompareWithSingleProcess(seed int64, cluster *ledger.Ledger, deadline time.Duration) ([]string, error) {
	sc := check.Generate(seed)
	inet := check.BuildNetsimTokened(sc)
	routes, err := check.FlowRoutesAccounted(inet, sc)
	if err != nil {
		return nil, fmt.Errorf("daemon: single-process routes: %w", err)
	}
	res, counters, led, _ := check.RunLivenetLedgered(sc, routes, deadline)
	deliv, reply, garbled, sendErrs := res.Counts()
	if deliv != len(sc.Flows) || reply != len(sc.Flows) || garbled != 0 || sendErrs != 0 {
		return nil, fmt.Errorf(
			"daemon: single-process reference run incomplete: %d/%d delivered, %d/%d replied, %d garbled, %d send errors",
			deliv, len(sc.Flows), reply, len(sc.Flows), garbled, sendErrs)
	}
	problems := check.DiffLedgers(led, cluster)
	problems = append(problems, ledger.Reconcile("single-process", led, counters)...)
	return problems, nil
}

// FormatReports renders a human-readable cluster summary, peers in
// name order.
func FormatReports(reports map[string]*Report) string {
	names := make([]string, 0, len(reports))
	for n := range reports {
		names = append(names, n)
	}
	sort.Strings(names)
	var out string
	for _, n := range names {
		r := reports[n]
		out += fmt.Sprintf("%s: complete=%v delivered=%d replied=%d forwarded=%d token-auth=%d drops=%d tunnel-drops=%d anomalies=%d failovers=%d\n",
			n, r.Complete, len(r.Delivered), len(r.Replied), r.Forwarded, r.TokenAuthorized, r.RouterDrops, r.TunnelDropped, r.Anomalies, r.Failovers)
		links := make([]int, 0, len(r.Tunnels))
		for id := range r.Tunnels {
			links = append(links, int(id))
		}
		sort.Ints(links)
		for _, id := range links {
			s := r.Tunnels[uint16(id)]
			out += fmt.Sprintf("  link %d: encap=%d sends=%d decap=%d decode-errs=%d send-errs=%d dropped=%d\n",
				id, s.Encapsulated, s.Sends, s.Decapsulated, s.DecodeErrors, s.SendErrors, s.Dropped)
		}
		for _, g := range r.Gateways {
			s := g.Stats
			out += fmt.Sprintf("  gateway %s on %s: streams=%d clean=%d resets=%d in=%dB out=%dB groups=%d rtt-p50=%dus p99=%dus retx=%d\n",
				g.Role, g.Host, s.Streams, s.CleanCloses, s.Resets, s.BytesIn, s.BytesOut,
				s.GroupsSent, s.GroupRTTp50us, s.GroupRTTp99us, s.VMTP.Retransmissions+s.VMTP.SelectiveResends)
		}
	}
	return out
}
