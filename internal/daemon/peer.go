package daemon

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/directory"
	"repro/internal/gateway"
	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/udpnet"
)

// PeerConfig configures one cluster peer: the daemon realizing its
// share of a seeded scenario on a local livenet substrate, with
// cross-partition links carried over UDP.
type PeerConfig struct {
	// Index identifies this peer (0-based); Total is the cluster size.
	Index, Total int
	// Seed selects the scenario; must match the directory's.
	Seed int64
	// DirURL is the directory service base URL.
	DirURL string
	// UDPAddr is the bridge listen address; default "127.0.0.1:0".
	UDPAddr string
	// SettleTimeout bounds the wait for local quiesce; default 30s.
	SettleTimeout time.Duration
	// Gateway runs the cluster in gateway mode: the peers owning the
	// scenario's deterministic gateway hosts (check.GatewayHosts) bind
	// SOCKS ingress / dialing egress relays on them, and every peer
	// holds the drain barrier until the cluster run raises the directory's
	// shutdown latch — so the ledger sweep still sees a quiet network.
	Gateway bool
	// GatewayListen is the ingress SOCKS listen address; default
	// "127.0.0.1:0".
	GatewayListen string
	// Failover runs the two-wave failover smoke. Every flow route asks
	// the directory for FailoverAlternates ranked alternates per router
	// hop, so DAG hops can divert mid-flight when a tunnel dies
	// (DESIGN.md §15). The first half of the flows (even scenario
	// indexes) runs on the healthy mesh and drains cluster-wide; every
	// peer terminating cross-link BlipLink then takes its tunnel end
	// down behind a barrier, and the second half must keep delivering
	// by diverting onto its in-header alternates — no directory
	// re-query, zero lost transactions.
	Failover bool
	// BlipLink is the global link index (into the scenario's Links) the
	// failover smoke takes down. Both terminating peers match on it, so
	// the link dies in both directions without coordination.
	BlipLink int
	// Debug, when set, serves the peer's debug mux (/healthz,
	// /debug/vars, /debug/ledger, /debug/flightrec, /debug/pprof/) on
	// this address from build until Peer returns; the registration
	// advertises its URL (directory.PeerReg.Debug).
	Debug string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// FailoverAlternates is how many ranked alternates per router hop a
// failover run's flow routes carry.
const FailoverAlternates = 2

// gatewayWait bounds a gateway-mode peer's wait for the cluster run's
// shutdown latch.
const gatewayWait = 2 * time.Minute

func (c *PeerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Peer runs the peer role to completion: build owned topology, join
// the cluster, push the owned share of the workload, quiesce, report,
// and tear down. The returned Report is the final snapshot posted to
// the directory.
func Peer(cfg PeerConfig) (*Report, error) {
	if cfg.Total <= 0 || cfg.Index < 0 || cfg.Index >= cfg.Total {
		return nil, fmt.Errorf("daemon: peer index %d out of range for %d peers", cfg.Index, cfg.Total)
	}
	if cfg.UDPAddr == "" {
		cfg.UDPAddr = "127.0.0.1:0"
	}
	if cfg.SettleTimeout == 0 {
		cfg.SettleTimeout = 30 * time.Second
	}
	if cfg.GatewayListen == "" {
		cfg.GatewayListen = "127.0.0.1:0"
	}
	name := check.PeerName(cfg.Index)
	sc := check.Generate(cfg.Seed)

	// Cluster tracing of every packet: trace IDs originated here carry
	// this peer's index above bit 48, so IDs are cluster-unique and any
	// process can tell "my trace" from "a trace I'm forwarding" without
	// coordination. Trace contexts ride the tunnel and gateway wire
	// formats across process boundaries.
	fr := ledger.NewFlightRecorder(0)
	spans := trace.NewSpans(0)
	tracer := trace.NewClusterTracer(name, uint64(cfg.Index+1)<<48, spans)

	// Local substrate: owned routers (token-guarded exactly as the
	// single-process ledgered run guards them), their hosts, and every
	// link with both ends owned. In gateway mode any link may carry
	// relays (the directory picks the ingress→egress route), so every
	// link and tunnel holds a full relay window (DESIGN.md §11).
	depth := livenet.DefaultLinkDepth
	if cfg.Gateway {
		depth = gateway.BurstPackets
	}
	ln := check.BuildLivenet(sc, cfg.Index, cfg.Total, depth,
		livenet.WithFlightRecorder(fr), livenet.WithTracer(tracer))
	defer ln.Net.Stop()
	ln.GuardTokens(sc)

	// Cross-partition links become UDP tunnels; the global link index
	// is the wire linkID, so both ends agree without coordination.
	bridge, err := udpnet.Listen(cfg.UDPAddr,
		udpnet.WithFlightRecorder(fr), udpnet.WithTelemetry(name, spans))
	if err != nil {
		return nil, err
	}
	defer bridge.Close()
	ev := &evidence{
		name:    name,
		flows:   check.NewResult(),
		routers: ln.Routers,
		tracer:  tracer,
		flight:  fr,
	}
	var debugURL string
	if cfg.Debug != "" {
		dl, err := net.Listen("tcp", cfg.Debug)
		if err != nil {
			return nil, fmt.Errorf("daemon: debug listen: %w", err)
		}
		srv := &http.Server{Handler: debugMux(ev.ownedLedger, fr)}
		go srv.Serve(dl)
		defer srv.Close()
		debugURL = "http://" + dl.Addr().String()
		cfg.logf("%s: debug mux on %s", name, debugURL)
	}
	for _, li := range check.CrossLinks(sc, cfg.Total) {
		l := sc.Links[li]
		var ri int
		var port uint8
		var far int
		switch cfg.Index {
		case check.Owner(l.A, cfg.Total):
			ri, port, far = l.A, l.APort, check.Owner(l.B, cfg.Total)
		case check.Owner(l.B, cfg.Total):
			ri, port, far = l.B, l.BPort, check.Owner(l.A, cfg.Total)
		default:
			continue
		}
		tun, err := bridge.Attach(ln.Net, ln.Routers[ri], port, uint16(li), udpnet.WithDepth(depth))
		if err != nil {
			return nil, err
		}
		ev.tunnels = append(ev.tunnels, peerTunnel{tun: tun, farOwner: far})
	}

	// Workload receivers: the conformance harness's echo protocol on
	// the owned hosts. Handlers MUST be live before the "up" barrier
	// below — a faster peer injects the moment the barrier clears, and
	// a request arriving at a handlerless host would be dropped.
	ln.InstallEcho(sc, ev.flows)

	// Gateway relays, when this peer owns a gateway host: the egress
	// (a dialing relay needing no route of its own) and the SOCKS
	// ingress, whose ingress→egress source route — tokens included —
	// comes from the directory like any flow's. Both bind
	// check.GatewayEndpoint, leaving endpoint 0 to the echo protocol
	// above; their VMTP return traffic addresses that endpoint via the
	// origin trailer, so stream acks never collide with flow replies.
	client := directory.NewClient(cfg.DirURL)
	gin, geg := check.GatewayHosts(sc, cfg.Total)
	ev.ingressHost, ev.egressHost = check.HostName(gin), check.HostName(geg)
	var gwIngress *gateway.Ingress
	var gwEgress *gateway.Egress
	if cfg.Gateway {
		if h := ln.Hosts[geg]; h != nil {
			gwEgress = gateway.NewEgress(h, check.GatewayEndpoint, gateway.Config{
				Entity: check.GatewayEgressEntity, Telemetry: spans, Node: name,
			})
			ev.egress = gwEgress
			defer gwEgress.Close()
		}
		if h := ln.Hosts[gin]; h != nil {
			routes, err := client.Routes(directory.Query{
				From:     check.HostName(gin),
				To:       check.HostName(geg),
				Endpoint: check.GatewayEndpoint,
				Account:  check.GatewayAccount,
			})
			if err != nil {
				return nil, fmt.Errorf("daemon: gateway route %s->%s: %w",
					check.HostName(gin), check.HostName(geg), err)
			}
			ln, err := net.Listen("tcp", cfg.GatewayListen)
			if err != nil {
				return nil, fmt.Errorf("daemon: gateway listen: %w", err)
			}
			gwIngress = gateway.NewIngress(ln, h, check.GatewayEndpoint, gateway.Config{
				Entity: check.GatewayIngressEntity, Peer: check.GatewayEgressEntity,
				Route: routes[0].Segments, Telemetry: spans, Node: name,
			})
			ev.ingress = gwIngress
			defer gwIngress.Close()
			cfg.logf("%s: SOCKS ingress on %s (route %v)", name, gwIngress.Addr(), routes[0].Path)
		}
	}

	// Join: register the bridge address, wait for the full roster,
	// resolve every tunnel's far end, and barrier until the whole
	// cluster is wired — no packet crosses a tunnel before both ends
	// exist, so nothing is lost to startup order.
	var ownedNodes []string
	for ri, r := range ln.Routers {
		if r != nil {
			ownedNodes = append(ownedNodes, check.RouterName(ri))
		}
	}
	reg := directory.PeerReg{Name: name, UDPAddr: bridge.Addr().String(), Nodes: ownedNodes, Debug: debugURL}
	if gwIngress != nil {
		reg.Socks = gwIngress.Addr()
	}
	if _, err := client.Register(reg); err != nil {
		return nil, err
	}
	roster, err := client.WaitPeers(cfg.Total, cfg.SettleTimeout)
	if err != nil {
		return nil, err
	}
	addrOf := make(map[string]*net.UDPAddr, len(roster))
	for _, p := range roster {
		ua, err := net.ResolveUDPAddr("udp", p.UDPAddr)
		if err != nil {
			return nil, fmt.Errorf("daemon: peer %s has bad address %q: %w", p.Name, p.UDPAddr, err)
		}
		addrOf[p.Name] = ua
	}
	for _, pd := range ev.tunnels {
		far := check.PeerName(pd.farOwner)
		ua, ok := addrOf[far]
		if !ok {
			return nil, fmt.Errorf("daemon: tunnel %d's far owner %s never registered", pd.tun.LinkID(), far)
		}
		pd.tun.SetRemote(ua)
	}
	if err := client.Barrier(name, "up"); err != nil {
		return nil, err
	}
	cfg.logf("%s: cluster up, %d routers %d tunnels", name, len(ownedNodes), len(ev.tunnels))

	// Cumulative snapshots flow to the directory every half second
	// while the workload runs, and once more, final, after the drain
	// barrier (below).
	stopShip := ev.ship(client, 500*time.Millisecond)
	defer stopShip()

	// Inject owned flows, with routes — and tokens — fetched from the
	// directory over the wire, the same queries the single-process run
	// makes in-process. Normally one wave; the failover smoke splits the
	// flows in two so the blip link dies on a provably quiet network
	// (wave 0 drained cluster-wide) and wave 1 exercises mid-flight
	// failover with nothing racing the SetDown.
	waves, alternates := 1, 0
	if cfg.Failover {
		waves, alternates = 2, FailoverAlternates
	}
	deadline := time.Now().Add(cfg.SettleTimeout)
	var wantDelivered, wantReplied int
	for w := 0; w < waves; w++ {
		for fi, f := range sc.Flows {
			if fi%waves != w {
				continue
			}
			if check.HostOwner(sc, f.Dst, cfg.Total) == cfg.Index {
				wantDelivered++
			}
			if check.HostOwner(sc, f.Src, cfg.Total) != cfg.Index {
				continue
			}
			wantReplied++
			routes, err := client.Routes(directory.Query{
				From:       check.HostName(f.Src),
				To:         check.HostName(f.Dst),
				Priority:   f.Prio,
				Account:    check.AccountFor(f),
				Alternates: alternates,
			})
			if err != nil {
				return nil, fmt.Errorf("daemon: route for flow %d: %w", f.ID, err)
			}
			if err := ln.Hosts[f.Src].Send(routes[0].Segments, check.FlowData(f)); err != nil {
				ev.flows.AddSendErr()
			}
		}

		// Quiesce: local completeness is every owned destination seeing
		// its request and every owned source seeing its reply. When all
		// peers are locally complete, no data packet is in flight
		// anywhere — the "drained" barrier then makes the ledger sweep a
		// snapshot of a quiet network (and the failover blip a cut on a
		// quiet one).
		for {
			deliv, reply, _, _ := ev.flows.Counts()
			done := deliv >= wantDelivered && reply >= wantReplied
			if done || time.Now().After(deadline) {
				ev.complete.Store(done)
				break
			}
			time.Sleep(2 * time.Millisecond)
		}

		if cfg.Failover && w == 0 {
			if err := client.Barrier(name, "wave0-drained"); err != nil {
				return nil, err
			}
			for _, pd := range ev.tunnels {
				if int(pd.tun.LinkID()) == cfg.BlipLink {
					pd.tun.SetDown(true)
					cfg.logf("%s: tunnel %d down — wave 1 must fail over in-header", name, pd.tun.LinkID())
				}
			}
			if err := client.Barrier(name, "blipped"); err != nil {
				return nil, err
			}
		}
	}
	// Gateway mode: the workload is driven from outside (the cluster run's
	// SOCKS transfer), so every peer — whether it hosts a relay or just
	// forwards stream traffic — holds here until the cluster run raises
	// the shutdown latch. Relays then drain their streams and close
	// BEFORE the drain barrier, so the ledger sweep below is still a
	// snapshot of a quiet network.
	if cfg.Gateway {
		gwDeadline := time.Now().Add(gatewayWait)
		for {
			sd, err := client.ShutdownRequested()
			if err == nil && sd {
				break
			}
			if time.Now().After(gwDeadline) {
				ev.complete.Store(false)
				cfg.logf("%s: gateway shutdown latch never raised", name)
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		waitIdle := func(active func() int) {
			d := time.Now().Add(5 * time.Second)
			for active() > 0 && time.Now().Before(d) {
				time.Sleep(5 * time.Millisecond)
			}
		}
		if gwIngress != nil {
			waitIdle(func() int { return gwIngress.Stats().ActiveStreams })
		}
		if gwEgress != nil {
			waitIdle(func() int { return gwEgress.Stats().ActiveStreams })
		}
		// A relay whose streams have all closed may still owe its peer an
		// answer: if a reply was lost, only its response cache answers the
		// retry, and Close discards it. So no relay closes until every
		// peer's relays are idle.
		if err := client.Barrier(name, "gateway-idle"); err != nil {
			return nil, err
		}
		if gwIngress != nil {
			gwIngress.Close()
		}
		if gwEgress != nil {
			gwEgress.Close()
		}
	}
	if err := client.Barrier(name, "drained"); err != nil {
		return nil, err
	}

	// Evidence, on a quiet network: the final snapshot, whose router
	// sweeps also go to the directory's billing database. The final
	// ship is synchronous and fatal, unlike the periodic ones, because
	// the cluster verdicts hold only at quiesce.
	stopShip()
	final := ev.snapshot(true)
	for rn, totals := range final.RouterUsage {
		if err := client.ReportUsage(rn, totals); err != nil {
			return nil, err
		}
	}
	if err := client.Telemetry(final); err != nil {
		return nil, fmt.Errorf("daemon: final snapshot: %w", err)
	}

	// Exit barrier: nobody tears down their bridge while a peer might
	// still want its reports served or late frames delivered.
	if err := client.Barrier(name, "done"); err != nil {
		return nil, err
	}
	cfg.logf("%s: done — %d delivered, %d replied, complete=%v",
		name, len(final.Flows.Delivered), len(final.Flows.Replied), final.Complete)
	return final, nil
}

// flightTail bounds how many flight-recorder events ride in each
// snapshot: the totals are always exact, only the event tail is
// truncated.
const flightTail = 128

// peerTunnel is one cross-partition link this peer terminates.
type peerTunnel struct {
	tun      *udpnet.Tunnel
	farOwner int // index of the peer owning the far end
}

// evidence assembles a peer's cumulative snapshots: the workload's
// delivery record, which the echo handlers fill, whether the peer
// quiesced, and the counters the peer's routers, tunnels, relays,
// tracer and flight recorder hold when a snapshot is taken.
type evidence struct {
	name string
	seq  uint64 // snapshots taken; the shipping loop and the final snapshot never overlap

	flows    *check.Result
	complete atomic.Bool

	routers                 []*livenet.Router // index-aligned with the scenario; nil if another peer's
	tunnels                 []peerTunnel
	ingress                 *gateway.Ingress
	egress                  *gateway.Egress
	ingressHost, egressHost string
	tracer                  *trace.ClusterTracer
	flight                  *ledger.FlightRecorder
}

// snapshot takes the next cumulative snapshot. Seq increases per call
// so the directory's latest-wins merge is unambiguous even when HTTP
// deliveries reorder.
func (ev *evidence) snapshot(final bool) *Report {
	ev.seq++
	rep := Report{Peer: ev.name, Seq: ev.seq, Final: final, Complete: ev.complete.Load(), Flows: ev.flows.Snapshot()}
	rep.RouterUsage = ev.usage()
	for _, r := range ev.routers {
		if r == nil {
			continue
		}
		s := r.Stats()
		rep.TokenAuthorized += s.TokenAuthorized
		rep.Forwarded += s.Forwarded
		rep.RouterDrops += s.TotalDrops()
	}
	for _, pt := range ev.tunnels {
		rep.Tunnels = append(rep.Tunnels, TunnelReport{
			LinkID: pt.tun.LinkID(), Peer: check.PeerName(pt.farOwner), Stats: pt.tun.Stats(),
		})
	}
	if ev.ingress != nil {
		rep.Gateways = append(rep.Gateways, GatewayReport{
			Role: "ingress", Host: ev.ingressHost, Socks: ev.ingress.Addr(),
			Stats: ev.ingress.Stats(), PeerRTTNs: hexKeys(ev.ingress.PeerRTTs()),
		})
	}
	if ev.egress != nil {
		rep.Gateways = append(rep.Gateways, GatewayReport{
			Role: "egress", Host: ev.egressHost,
			Stats: ev.egress.Stats(), PeerRTTNs: hexKeys(ev.egress.PeerRTTs()),
		})
	}

	rep.TraceBegun, rep.TraceResumed, rep.TraceFinished = ev.tracer.Counts()
	rep.Spans = ev.tracer.Spans().Snapshot()
	rep.FlightTotal = ev.flight.Total()
	evs := ev.flight.Events()
	for _, e := range evs {
		if e.Kind == ledger.KindFailover {
			rep.Failovers++
		}
	}
	if len(evs) > flightTail {
		evs = evs[len(evs)-flightTail:]
	}
	rep.Flight = evs
	return &rep
}

// usage returns each owned router's token-cache totals, by router
// name.
func (ev *evidence) usage() map[string]map[uint32]token.Usage {
	out := make(map[string]map[uint32]token.Usage)
	for ri, r := range ev.routers {
		if r != nil {
			out[check.RouterName(ri)] = r.TokenCache().AccountTotals()
		}
	}
	return out
}

// ownedLedger is the owned routers' per-account ledger, the /debug/ledger
// document. It reads the token caches directly rather than taking a
// snapshot, whose seq belongs to the shipper.
func (ev *evidence) ownedLedger() ledger.Snapshot {
	led := ledger.New()
	for rn, totals := range ev.usage() {
		led.Record(rn, totals)
	}
	return led.Snapshot()
}

// hexKeys re-keys per-entity RTTs by the entity in hex: JSON object
// keys must be strings.
func hexKeys(rtts map[uint64]int64) map[string]int64 {
	if len(rtts) == 0 {
		return nil
	}
	out := make(map[string]int64, len(rtts))
	for e, ns := range rtts {
		out[fmt.Sprintf("%x", e)] = ns
	}
	return out
}

// ship posts a snapshot every interval until the returned stop
// function is called. Stop waits for the loop to exit, so a snapshot
// taken after it has the highest seq; it is idempotent. Periodic
// failures are tolerated (the directory may briefly lag) — the final
// synchronous ship surfaces real errors.
func (ev *evidence) ship(client *directory.Client, every time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				client.Telemetry(ev.snapshot(false))
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(quit); <-done }) }
}
