// Package directory implements the internetwork directory service of §3:
// a hierarchical name service extended to return *routes* as attributes
// of a service — source routes with their MTU, base round-trip time,
// bandwidth, cost and security properties, plus the port tokens that
// authorize them (§2.2). Clients can request multiple routes and routes
// with particular properties ("low delay, high bandwidth, low cost and
// security", §3).
//
// The directory maintains a topology graph fed by attachment records and
// by load/failure reports from routers and monitoring stations (§6.3).
package directory

import (
	"fmt"

	"repro/internal/ethernet"
	"repro/internal/sim"
)

// NodeKind distinguishes endpoints from switches.
type NodeKind int

const (
	KindHost NodeKind = iota
	KindRouter
)

// EdgeAttrs are the static properties of an attachment the directory
// returns with routes (§3: "the directory service can return information
// on the bandwidth, propagation delay, maximum transmission unit, etc.").
type EdgeAttrs struct {
	RateBps float64
	Prop    sim.Time
	MTU     int // 0 = unlimited
	// Secure marks links acceptable for security-sensitive routes (§2:
	// route selection for security reduces exposure to insecure
	// portions of the network).
	Secure bool
	// CostPerKB is the administrative cost metric for MinCost routing.
	CostPerKB float64
}

// Edge is a directed attachment: traffic leaves From via FromPort and
// reaches To. On multi-access networks the station addresses build the
// hop's network header.
type Edge struct {
	From, To    string
	FromPort    uint8
	FromStation ethernet.Addr // zero on point-to-point links
	ToStation   ethernet.Addr // zero on point-to-point links
	Attrs       EdgeAttrs

	// Dynamic state from reports.
	Down    bool
	LoadBps float64
}

// multiAccess reports whether the edge crosses a multi-access network.
func (e *Edge) multiAccess() bool { return e.ToStation != (ethernet.Addr{}) }

// Graph is the directory's topology model.
type Graph struct {
	nodes map[string]NodeKind
	out   map[string][]*Edge
}

// NewGraph creates an empty topology.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[string]NodeKind), out: make(map[string][]*Edge)}
}

// AddNode registers a node.
func (g *Graph) AddNode(name string, kind NodeKind) {
	g.nodes[name] = kind
}

// NodeKind returns a node's kind.
func (g *Graph) NodeKind(name string) (NodeKind, bool) {
	k, ok := g.nodes[name]
	return k, ok
}

// AddEdge registers a directed attachment. Both endpoints must exist.
func (g *Graph) AddEdge(e Edge) error {
	if _, ok := g.nodes[e.From]; !ok {
		return fmt.Errorf("directory: unknown node %q", e.From)
	}
	if _, ok := g.nodes[e.To]; !ok {
		return fmt.Errorf("directory: unknown node %q", e.To)
	}
	ec := e
	g.out[e.From] = append(g.out[e.From], &ec)
	return nil
}

// FindEdge returns the edge from->to, if any.
func (g *Graph) FindEdge(from, to string) (*Edge, bool) {
	for _, e := range g.out[from] {
		if e.To == to {
			return e, true
		}
	}
	return nil, false
}

// SetDown marks both directions of the from<->to adjacency up or down
// (failure reports from monitors and routers, §6.3).
func (g *Graph) SetDown(a, b string, down bool) {
	if e, ok := g.FindEdge(a, b); ok {
		e.Down = down
	}
	if e, ok := g.FindEdge(b, a); ok {
		e.Down = down
	}
}

// ReportLoad records the measured load on the from->to edge.
func (g *Graph) ReportLoad(from, to string, loadBps float64) {
	if e, ok := g.FindEdge(from, to); ok {
		e.LoadBps = loadBps
	}
}
