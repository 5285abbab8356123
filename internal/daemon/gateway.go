package daemon

import (
	"fmt"
	"net"

	"repro/internal/check"
	"repro/internal/gateway"
	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/viper"
)

// The standalone gateway role: one process, one token-guarded livenet
// chain with a SOCKS5 ingress host at one end and a dialing egress
// host at the other. Any RFC 1928 client (curl, a browser, DialSocks)
// that connects to the listener gets its TCP stream segmented into
// VMTP packet groups, source-routed across the chain, reassembled in
// order at the egress, and relayed to the real destination — with
// every stream byte billed to check.GatewayAccount on every router
// hop. `sirpentd gateway` and the bench harness both run this; the
// cluster peer role (peer.go) instead grafts the same relays onto a
// partitioned scenario's hosts.

// GatewayConfig configures a standalone gateway chain.
type GatewayConfig struct {
	// Hops is the number of routers between ingress and egress;
	// default 2.
	Hops int
	// Listen is the SOCKS5 listen address; default "127.0.0.1:0".
	Listen string
}

// GatewayServer is a running standalone gateway.
type GatewayServer struct {
	net     *livenet.Network
	ingress *gateway.Ingress
	egress  *gateway.Egress
	routers []*livenet.Router
	col     *ledger.Collector
}

// StartGateway builds the chain and starts serving SOCKS5.
func StartGateway(cfg GatewayConfig) (*GatewayServer, error) {
	if cfg.Hops <= 0 {
		cfg.Hops = 2
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}

	col := ledger.NewCollector(ledger.New())
	nw := livenet.NewNetwork(livenet.WithLedgerCollector(col))
	gs := &GatewayServer{net: nw, col: col}

	for i := 0; i < cfg.Hops; i++ {
		gs.routers = append(gs.routers, nw.NewRouter(fmt.Sprintf("R%d", i)))
	}
	// Every link holds a full relay window, so a burst queues instead of
	// overflowing into retransmissions (DESIGN.md §11).
	depth := livenet.WithDepth(gateway.BurstPackets)
	inHost := nw.NewHost("ingress")
	egHost := nw.NewHost("egress")
	nw.Connect(inHost, 1, gs.routers[0], 1, depth)
	for i := 0; i < cfg.Hops-1; i++ {
		nw.Connect(gs.routers[i], 100, gs.routers[i+1], 1, depth)
	}
	nw.Connect(gs.routers[cfg.Hops-1], 2, egHost, 1, depth)

	// One administrative domain guards the whole chain: every trunk
	// and the egress attachment demand tokens, billed to the gateway
	// account, ReverseOK so the mirrored trailer authorizes the return
	// direction.
	auth := token.NewAuthority([]byte("sirpentd-gateway-domain"))
	for _, r := range gs.routers {
		r.SetTokenAuthority(auth)
	}
	route := []viper.Segment{{Port: 1}}
	for i := 0; i < cfg.Hops-1; i++ {
		gs.routers[i].RequireToken(100)
		route = append(route, viper.Segment{
			Port: 100, Flags: viper.FlagVNT,
			PortToken: auth.Issue(token.Spec{Account: check.GatewayAccount, Port: 100, ReverseOK: true}),
		})
	}
	gs.routers[cfg.Hops-1].RequireToken(2)
	route = append(route,
		viper.Segment{
			Port: 2, Flags: viper.FlagVNT,
			PortToken: auth.Issue(token.Spec{Account: check.GatewayAccount, Port: 2, ReverseOK: true}),
		},
		viper.Segment{Port: viper.PortLocal},
	)

	gs.egress = gateway.NewEgress(egHost, 0, gateway.Config{Entity: check.GatewayEgressEntity})

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		nw.Stop()
		return nil, fmt.Errorf("daemon: gateway listen %q: %w", cfg.Listen, err)
	}
	gs.ingress = gateway.NewIngress(ln, inHost, 0, gateway.Config{
		Entity: check.GatewayIngressEntity,
		Peer:   check.GatewayEgressEntity,
		Route:  route,
	})
	return gs, nil
}

// Addr is the SOCKS5 listen address.
func (g *GatewayServer) Addr() string { return g.ingress.Addr() }

// IngressStats and EgressStats snapshot the relays' counters.
func (g *GatewayServer) IngressStats() gateway.Stats { return g.ingress.Stats() }
func (g *GatewayServer) EgressStats() gateway.Stats  { return g.egress.Stats() }

// Bill sweeps the routers' token caches and returns the merged
// per-account usage — the gateway's bill for all relayed traffic.
func (g *GatewayServer) Bill() map[uint32]ledger.Entry {
	g.col.Collect()
	return g.col.Ledger().Totals()
}

// Reconcile sweeps the ledger and checks it against the forwarding
// plane's token-authorization counters; nil means every billed packet
// matches an authorization.
func (g *GatewayServer) Reconcile() []string {
	g.col.Collect()
	var c stats.Counters
	for _, r := range g.routers {
		c.TokenAuthorized += r.Stats().TokenAuthorized
	}
	return ledger.Reconcile("gateway", g.col.Ledger(), c)
}

// Close stops the SOCKS listener, tears down the relays, and stops the
// substrate.
func (g *GatewayServer) Close() {
	g.ingress.Close()
	g.egress.Close()
	g.net.Stop()
}
