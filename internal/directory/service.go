package directory

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/token"
)

// Service is the routing directory: hierarchical character-string names
// (which "serve as the unique hierarchical identifiers for hosts,
// gateways and networks", §3) bound to topology nodes, route computation
// with tokens, and load/failure advisories.
//
// The name space is organized as a region hierarchy following Singh's
// scheme (§3): each dot-separated suffix is a region with its own server;
// resolving a name costs one server round trip per region boundary
// crossed, unless answered from the client's cache.
type Service struct {
	eng *sim.Engine
	g   *Graph

	names map[string]string // hierarchical name -> node name

	auths map[string]*token.Authority // router -> token authority
	usage map[string]map[uint32]token.Usage

	// PerLevelLatency is the simulated cost of one region-server hop
	// during resolution. Default 2ms.
	PerLevelLatency sim.Time

	// Stats.
	Lookups      uint64
	RouteQueries uint64
}

// NewService creates a directory over a topology graph.
func NewService(eng *sim.Engine, g *Graph) *Service {
	return &Service{
		eng:             eng,
		g:               g,
		names:           make(map[string]string),
		auths:           make(map[string]*token.Authority),
		PerLevelLatency: 2 * sim.Millisecond,
	}
}

// Graph exposes the topology for reports and tests.
func (s *Service) Graph() *Graph { return s.g }

// Register binds a hierarchical name to a topology node.
func (s *Service) Register(name, node string) error {
	if _, ok := s.g.nodes[node]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, node)
	}
	s.names[name] = node
	return nil
}

// RegisterAuthority installs the token authority for a router's
// administrative domain; routes through that router will carry tokens
// issued against it.
func (s *Service) RegisterAuthority(router string, a *token.Authority) {
	s.auths[router] = a
}

// Resolve maps a hierarchical name to its node.
func (s *Service) Resolve(name string) (string, bool) {
	s.Lookups++
	n, ok := s.names[name]
	if !ok {
		// Accept bare node names too.
		if _, isNode := s.g.nodes[name]; isNode {
			return name, true
		}
	}
	return n, ok
}

// ResolutionLatency models the cost of resolving a name from a client in
// a given region: one server round trip per region boundary between the
// client's region and the name's region, per Singh's hierarchy. A name
// entirely within the client's region costs one hop.
func (s *Service) ResolutionLatency(clientRegion, name string) sim.Time {
	hops := 1 + regionDistance(clientRegion, regionOf(name))
	return sim.Time(hops) * s.PerLevelLatency
}

// regionOf strips the leaf label: "argus.cs.stanford.edu" -> "cs.stanford.edu".
func regionOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return ""
}

// regionDistance counts the region-tree hops between two regions: up
// from a to the common ancestor suffix, then down to b.
func regionDistance(a, b string) int {
	al := labels(a)
	bl := labels(b)
	// Longest common suffix.
	i, j := len(al)-1, len(bl)-1
	common := 0
	for i >= 0 && j >= 0 && al[i] == bl[j] {
		common++
		i--
		j--
	}
	return (len(al) - common) + (len(bl) - common)
}

func labels(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ".")
}

// Routes answers a route query by name or node, issuing tokens for
// token-guarded routers along each route.
func (s *Service) Routes(q Query) ([]Route, error) {
	s.RouteQueries++
	from, ok := s.Resolve(q.From)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, q.From)
	}
	to, ok := s.Resolve(q.To)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, q.To)
	}
	nq := q
	nq.From, nq.To = from, to
	return s.g.routesBetween(nq, func(r string) (*token.Authority, bool) {
		a, ok := s.auths[r]
		return a, ok
	})
}

// Advise re-evaluates a previously returned route against current
// topology state: it reports whether the route is still usable (no edge
// down) — the "route advisories" clients periodically request (§6.3).
func (s *Service) Advise(r *Route) bool {
	for i := 0; i+1 < len(r.Path); i++ {
		e, ok := s.g.FindEdge(r.Path[i], r.Path[i+1])
		if !ok || e.Down {
			return false
		}
	}
	return true
}

// ReportDown records a failure report for the adjacency between two
// nodes (from routers, hosts or network monitors, §3).
func (s *Service) ReportDown(a, b string) { s.g.SetDown(a, b, true) }

// ReportUp clears a failure report.
func (s *Service) ReportUp(a, b string) { s.g.SetDown(a, b, false) }

// ReportUsage records a router's per-account usage snapshot. §3 argues
// the directory should absorb this role: "Merging the routing and
// directory services facilitates supporting authorization and accounting
// as part of routing ... The authorization and accounting information
// represents a data base."
func (s *Service) ReportUsage(router string, totals map[uint32]token.Usage) {
	if s.usage == nil {
		s.usage = make(map[string]map[uint32]token.Usage)
	}
	cp := make(map[uint32]token.Usage, len(totals))
	for a, u := range totals {
		cp[a] = u
	}
	s.usage[router] = cp
}

// Bill aggregates the latest usage reports across all routers into
// per-account totals.
func (s *Service) Bill() map[uint32]token.Usage {
	out := make(map[uint32]token.Usage)
	for _, per := range s.usage {
		for a, u := range per {
			t := out[a]
			t.Add(u)
			out[a] = t
		}
	}
	return out
}

// Resolver is a client-side cache of routes with TTL and on-use refresh,
// "the use of caching, on-use detection of stale data and hierarchical
// structure ... reduces the expected response time for routing queries"
// (§3).
type Resolver struct {
	svc *Service
	eng *sim.Engine
	ttl sim.Time

	cache map[string]cachedRoutes

	Hits, Misses uint64
}

type cachedRoutes struct {
	routes  []Route
	expires sim.Time
}

// NewResolver creates a client cache with the given TTL.
func NewResolver(eng *sim.Engine, svc *Service, ttl sim.Time) *Resolver {
	return &Resolver{svc: svc, eng: eng, ttl: ttl, cache: make(map[string]cachedRoutes)}
}

// Routes returns cached routes when fresh, otherwise queries the
// directory. The latency of a cold query is returned so callers can
// charge it; cache hits are free.
func (r *Resolver) Routes(q Query) ([]Route, sim.Time, error) {
	key := fmt.Sprintf("%s>%s/%d/%d/%d", q.From, q.To, q.Pref, q.Count, q.Endpoint)
	if c, ok := r.cache[key]; ok && r.eng.Now() < c.expires {
		r.Hits++
		return c.routes, 0, nil
	}
	r.Misses++
	routes, err := r.svc.Routes(q)
	if err != nil {
		return nil, 0, err
	}
	r.cache[key] = cachedRoutes{routes: routes, expires: r.eng.Now() + r.ttl}
	lat := r.svc.ResolutionLatency(regionOf(q.From), q.To)
	return routes, lat, nil
}

// Invalidate drops a cached entry (on-use detection of staleness: a
// route that stopped working is flushed and re-queried).
func (r *Resolver) Invalidate(q Query) {
	key := fmt.Sprintf("%s>%s/%d/%d/%d", q.From, q.To, q.Pref, q.Count, q.Endpoint)
	delete(r.cache, key)
}
