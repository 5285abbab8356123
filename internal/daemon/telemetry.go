package daemon

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file reads the cluster's merged evidence as observability:
// verifying the trace accounting and rendering the one cluster report.
// The counters are designed to reconcile exactly on a clean run —
// every wire span a tunnel recorded pairs with one traced
// decapsulation, every gateway receive span with one successful traced
// group — so "the numbers add up" is a checkable verdict, not a vibe.

// VerifyClusterTelemetry checks the trace accounting of a finished
// run: every peer's final snapshot arrived; no peer leaked trace
// records (finished == begun + resumed); the cluster-wide wire-span
// count equals the tunnels' traced decapsulations (each crossing
// recorded exactly once, on the receiving side); and — when gateways
// ran — the stream stages are present, their counts pair
// sender-to-receiver on a reset-free run, and spans came from at least
// two processes (i.e. the trace context genuinely crossed a process
// boundary), or from the one process of a cluster of one. Returns one
// line per violation; nil is a pass.
func VerifyClusterTelemetry(cl *Cluster) []string {
	var problems []string
	badf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if final := cl.final(); final < cl.Expect {
		badf("telemetry incomplete: %d/%d peers sent a final snapshot", final, cl.Expect)
		return problems
	}

	stageCount := make(map[string]int64, len(cl.Stages))
	var wireSpans int64
	for _, st := range cl.Stages {
		stageCount[st.Stage] = st.Count
		if strings.HasPrefix(st.Stage, "wire:") {
			wireSpans += st.Count
		}
	}

	var tracedRecv, gwResets uint64
	nodesWithSpans, haveGateway := 0, false
	for _, name := range peerNames(cl.Reports) {
		n := cl.Reports[name]
		if n.TraceFinished != n.TraceBegun+n.TraceResumed {
			badf("%s leaked trace records: finished=%d, begun=%d + resumed=%d",
				n.Peer, n.TraceFinished, n.TraceBegun, n.TraceResumed)
		}
		for _, t := range n.Tunnels {
			tracedRecv += t.Stats.TracedRecv
		}
		for _, g := range n.Gateways {
			haveGateway = true
			gwResets += g.Stats.Resets
		}
		if len(n.Spans.Stages) > 0 {
			nodesWithSpans++
		}
	}
	if wireSpans != int64(tracedRecv) {
		badf("wire spans (%d) disagree with tunnels' traced decapsulations (%d)", wireSpans, tracedRecv)
	}

	if haveGateway {
		for _, must := range []string{"stream-ingress", "stream-transit", "stream-egress"} {
			if stageCount[must] == 0 {
				badf("no %q spans recorded", must)
			}
		}
		if gwResets == 0 {
			// Reset-free: every traced group the sender counted was
			// applied exactly once at the receiver, so the sender- and
			// receiver-side span counts must pair up.
			if up, eg := stageCount["stream-ingress"], stageCount["stream-egress"]; up != eg {
				badf("uplink span counts disagree: %d stream-ingress vs %d stream-egress", up, eg)
			}
			if down, cw := stageCount["stream-return"], stageCount["stream-client-write"]; down != cw {
				badf("downlink span counts disagree: %d stream-return vs %d stream-client-write", down, cw)
			}
			if tr, want := stageCount["stream-transit"], stageCount["stream-ingress"]+stageCount["stream-return"]; tr != want {
				badf("stream-transit spans (%d) disagree with traced groups sent (%d)", tr, want)
			}
		}
		if want := min(2, cl.Expect); nodesWithSpans < want {
			badf("spans recorded by %d process(es), want >= %d (trace context never crossed a boundary?)", nodesWithSpans, want)
		}
	}
	return problems
}

// FormatCluster renders the cluster's merged evidence as the tables
// `sirpentd report` and `sirpent-cluster -report` print: per-peer
// delivery and forwarding counts, trace accounting, merged stage
// latency, per-tunnel and per-relay counters, and the bill.
func FormatCluster(cl *Cluster) string {
	var sb strings.Builder
	names := peerNames(cl.Reports)
	fmt.Fprintf(&sb, "cluster: %d/%d peers final\n", cl.final(), cl.Expect)

	fmt.Fprintf(&sb, "peers:\n  %-8s %5s %8s %9s %7s %9s %10s %6s %12s %9s %9s\n",
		"peer", "final", "complete", "delivered", "replied", "forwarded", "token-auth",
		"drops", "tunnel-drops", "anomalies", "failovers")
	var tunnelRows, gatewayRows []string
	for _, name := range names {
		n := cl.Reports[name]
		var tunnelDrops uint64
		for _, t := range n.Tunnels {
			s := t.Stats
			tunnelDrops += s.Dropped
			tunnelRows = append(tunnelRows, fmt.Sprintf(
				"  %-8s link %-3d -> %-8s encap=%-7d sends=%-7d decap=%-7d traced-sent=%-6d traced-recv=%-6d decode-errs=%d send-errs=%d dropped=%d",
				n.Peer, t.LinkID, t.Peer, s.Encapsulated, s.Sends, s.Decapsulated, s.TracedSent, s.TracedRecv,
				s.DecodeErrors, s.SendErrors, s.Dropped))
		}
		for _, g := range n.Gateways {
			s := g.Stats
			row := fmt.Sprintf(
				"  %-8s %-7s on %-4s streams=%d clean=%d resets=%d in=%dB out=%dB groups=%d rtt-p50=%dus p99=%dus retx=%d dup-reqs=%d",
				n.Peer, g.Role, g.Host, s.Streams, s.CleanCloses, s.Resets, s.BytesIn, s.BytesOut,
				s.GroupsSent, s.GroupRTTp50us, s.GroupRTTp99us,
				s.VMTP.Retransmissions+s.VMTP.SelectiveResends, s.VMTP.DupRequests)
			ents := make([]string, 0, len(g.PeerRTTNs))
			for e := range g.PeerRTTNs {
				ents = append(ents, e)
			}
			sort.Strings(ents)
			for _, e := range ents {
				row += fmt.Sprintf(" srtt[%s]=%s", e, time.Duration(g.PeerRTTNs[e]).Round(time.Microsecond))
			}
			gatewayRows = append(gatewayRows, row)
		}
		fmt.Fprintf(&sb, "  %-8s %5v %8v %9d %7d %9d %10d %6d %12d %9d %9d\n",
			n.Peer, n.Final, n.Complete, len(n.Flows.Delivered), len(n.Flows.Replied), n.Forwarded,
			n.TokenAuthorized, n.RouterDrops, tunnelDrops, n.FlightTotal, n.Failovers)
	}

	fmt.Fprintf(&sb, "traces:\n  %-8s %8s %8s %8s\n", "peer", "begun", "resumed", "finished")
	for _, name := range names {
		n := cl.Reports[name]
		fmt.Fprintf(&sb, "  %-8s %8d %8d %8d\n", n.Peer, n.TraceBegun, n.TraceResumed, n.TraceFinished)
	}

	if len(cl.Stages) > 0 {
		fmt.Fprintf(&sb, "stage latency (merged across nodes):\n")
		fmt.Fprintf(&sb, "  %-20s %8s %12s %12s %12s\n", "stage", "count", "mean", "p50", "p99")
		for _, st := range cl.Stages {
			fmt.Fprintf(&sb, "  %-20s %8d %12s %12s %12s\n",
				st.Stage, st.Count,
				time.Duration(int64(st.MeanNs)).Round(time.Microsecond),
				time.Duration(st.P50Ns).Round(time.Microsecond),
				time.Duration(st.P99Ns).Round(time.Microsecond))
		}
	}
	if len(tunnelRows) > 0 {
		fmt.Fprintf(&sb, "tunnels:\n%s\n", strings.Join(tunnelRows, "\n"))
	}
	if len(gatewayRows) > 0 {
		fmt.Fprintf(&sb, "gateways:\n%s\n", strings.Join(gatewayRows, "\n"))
	}

	cl.Bill.WriteTable(&sb, "billing")
	return sb.String()
}
