// Package check is the Sirpent conformance and fault-injection harness.
//
// The repo realizes the same forwarding algorithm on two substrates: the
// netsim substrate runs *viper.Packet values through routers on
// deterministic virtual time, and the livenet substrate runs encoded
// wire bytes through goroutines and channels. Both implement the paper's
// per-hop discipline — strip the leading header segment, mirror it into
// the trailer, forward the rest (§2) — and a divergence between them is
// a bug in one of them by construction. Since the per-hop decision stage
// moved into the shared internal/dataplane kernel, that stage is
// identical by construction (see DESIGN.md §10); this harness earns its
// keep on what stays substrate-specific — queueing, timing, buffer
// surgery, concurrency — and on the end-to-end composition of hops.
//
// The harness generates seeded random topologies and workloads, runs the
// identical scenario through both substrates, and diffs three things:
//
//   - delivery sets: every injected packet must reach the same host (or
//     be missing from both) regardless of substrate;
//   - trailer contents: the accumulated return segments of each
//     delivered packet must match segment-for-segment, proving the
//     pointer surgery (netsim) and the byte surgery (livenet) agree;
//   - reverse-route reachability: a reply sent along each delivered
//     packet's accumulated trailer must arrive back at the original
//     sender with zero routing knowledge (§2's core claim).
//
// The fault-injection half drives link-down, packet-loss, preemption,
// and rate-limit events through the substrates while checking
// conservation invariants: no packet is ever duplicated, and at quiesce
// every injected packet is delivered, dropped with a recorded reason, or
// attributable to a recorded fault event. See the tests for the precise
// per-fault accounting.
package check

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/viper"
)

// Link parameters shared by every generated scenario. All links run at
// the same rate so netsim routers cut-through on every hop, the most
// demanding forwarding mode.
const (
	LinkRateBps = 10e6
)

// Link is one router-router connection in a generated topology.
type Link struct {
	A, B         int // router indices
	APort, BPort uint8
}

// Flow is one injected packet: a source host, a destination host, and
// the payload shape.
type Flow struct {
	Src, Dst int // host indices
	Size     int // payload bytes (>= dataMinLen)
	Prio     viper.Priority
	ID       uint64
}

// Scenario is a reproducible topology + workload, fully determined by
// its seed. Router i is named RouterName(i), host i HostName(i); host i
// attaches its interface 1 to router HostRouter[i] port HostPort[i].
// SplitRouters is not part of the topology: it makes BuildLivenet give
// every router a forwarding worker of its own (livenet.SplitRouters), so
// router-to-router links are rings instead of in-place hand-offs; the
// suites run each scenario both ways.
type Scenario struct {
	Seed         int64
	NRouters     int
	HostRouter   []int
	HostPort     []uint8
	Links        []Link
	Flows        []Flow
	SplitRouters bool
}

// RouterName returns the canonical name of router i.
func RouterName(i int) string { return fmt.Sprintf("R%d", i) }

// HostName returns the canonical name of host i.
func HostName(i int) string { return fmt.Sprintf("h%d", i) }

// Generate builds the scenario for a seed: 1–5 routers joined by a
// random spanning tree plus up to two redundant links, 2–6 single-homed
// hosts, and 5–20 flows between distinct hosts with mixed sizes and
// (non-preemptive) priorities.
func Generate(seed int64) *Scenario {
	r := rand.New(rand.NewSource(seed))
	sc := &Scenario{Seed: seed}
	sc.NRouters = 1 + r.Intn(5)
	nHosts := 2 + r.Intn(5)

	nextPort := make([]uint8, sc.NRouters)
	alloc := func(ri int) uint8 {
		nextPort[ri]++
		return nextPort[ri]
	}

	// Spanning tree over routers, then a few redundant links.
	havePair := map[[2]int]bool{}
	addLink := func(a, b int) {
		sc.Links = append(sc.Links, Link{A: a, B: b, APort: alloc(a), BPort: alloc(b)})
		havePair[[2]int{a, b}] = true
		havePair[[2]int{b, a}] = true
	}
	for j := 1; j < sc.NRouters; j++ {
		addLink(r.Intn(j), j)
	}
	if sc.NRouters > 2 {
		for k := r.Intn(3); k > 0; k-- {
			a, b := r.Intn(sc.NRouters), r.Intn(sc.NRouters)
			if a != b && !havePair[[2]int{a, b}] {
				addLink(a, b)
			}
		}
	}

	for i := 0; i < nHosts; i++ {
		ri := r.Intn(sc.NRouters)
		sc.HostRouter = append(sc.HostRouter, ri)
		sc.HostPort = append(sc.HostPort, alloc(ri))
	}

	nFlows := 5 + r.Intn(16)
	for f := 0; f < nFlows; f++ {
		src := r.Intn(nHosts)
		dst := r.Intn(nHosts - 1)
		if dst >= src {
			dst++
		}
		sc.Flows = append(sc.Flows, Flow{
			Src:  src,
			Dst:  dst,
			Size: dataMinLen + r.Intn(480),
			Prio: viper.Priority(r.Intn(6)), // 0..5: never preemptive
			ID:   uint64(f + 1),
		})
	}
	return sc
}

// Payload encoding: [0:8] flow ID big-endian, [8] kind, then a
// deterministic fill so size mismatches are visible as data mismatches.
const (
	dataMinLen  = 16
	kindRequest = 0
	kindReply   = 1
)

// FlowData builds the request payload for a flow.
func FlowData(f Flow) []byte {
	b := make([]byte, f.Size)
	binary.BigEndian.PutUint64(b[:8], f.ID)
	b[8] = kindRequest
	for i := 9; i < len(b); i++ {
		b[i] = byte(uint64(i)*7 + f.ID)
	}
	return b
}

// ReplyData builds the echo payload acknowledging a flow.
func ReplyData(id uint64) []byte {
	b := make([]byte, dataMinLen)
	binary.BigEndian.PutUint64(b[:8], id)
	b[8] = kindReply
	return b
}

// ParseData recovers the flow ID and kind from a payload.
func ParseData(b []byte) (id uint64, kind byte, ok bool) {
	if len(b) < 9 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(b[:8]), b[8], true
}

// Fingerprint renders a return route (or any segment list) into a
// canonical comparable string covering every field the trailer
// discipline must preserve.
func Fingerprint(segs []viper.Segment) string {
	var sb strings.Builder
	for i := range segs {
		s := &segs[i]
		fmt.Fprintf(&sb, "port=%d flags=%x prio=%d token=%x info=%x; ",
			s.Port, uint8(s.Flags), uint8(s.Priority), s.PortToken, s.PortInfo)
	}
	return sb.String()
}
