package check

import (
	"bytes"
	"time"

	"repro/internal/livenet"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/viper"
)

// LiveNet is a scenario, or one cluster peer's share of it, realized
// on the goroutine substrate, with the fault-injection handles the
// invariant tests flip mid-flight. Every slice is index-aligned with the
// scenario; an entry another peer owns is nil.
type LiveNet struct {
	Net       *livenet.Network
	Routers   []*livenet.Router
	Hosts     []*livenet.Host
	Links     []*livenet.Link // router-router, index-aligned with Scenario.Links
	HostLinks []*livenet.Link // host-router, index-aligned with hosts
}

// BuildLivenet realizes peer's share of a peers-way partition of a
// scenario on the livenet substrate, with the same explicit port
// numbering as BuildNetsim: the routers Owner gives it, the hosts
// HostOwner gives it, and every link with both ends among them, each
// depth frames deep. The whole scenario is partition 0 of 1; a cluster
// peer carries the links that cross the partition itself. Options
// configure the network's observers (tracer, flight recorder).
func BuildLivenet(sc *Scenario, peer, peers, depth int, opts ...livenet.NetworkOption) *LiveNet {
	ln := &LiveNet{
		Net:       livenet.NewNetwork(opts...),
		Routers:   make([]*livenet.Router, sc.NRouters),
		Hosts:     make([]*livenet.Host, len(sc.HostRouter)),
		Links:     make([]*livenet.Link, len(sc.Links)),
		HostLinks: make([]*livenet.Link, len(sc.HostRouter)),
	}
	if sc.SplitRouters {
		livenet.SplitRouters(ln.Net)
	}
	for i := range ln.Routers {
		if Owner(i, peers) == peer {
			ln.Routers[i] = ln.Net.NewRouter(RouterName(i))
		}
	}
	for i := range ln.Hosts {
		if HostOwner(sc, i, peers) == peer {
			ln.Hosts[i] = ln.Net.NewHost(HostName(i))
		}
	}
	d := livenet.WithDepth(depth)
	for i, l := range sc.Links {
		if Owner(l.A, peers) == peer && Owner(l.B, peers) == peer {
			ln.Links[i] = ln.Net.Connect(ln.Routers[l.A], l.APort, ln.Routers[l.B], l.BPort, d)
		}
	}
	for i, h := range ln.Hosts {
		if h != nil {
			ln.HostLinks[i] = ln.Net.Connect(h, 1, ln.Routers[sc.HostRouter[i]], sc.HostPort[i], d)
		}
	}
	return ln
}

// GuardTokens gives every router in ln its administrative-domain key
// (TokenKey) and makes it demand a token on every port it has
// (RouterPorts), as BuildNetsimTokened guards the netsim routers.
func (ln *LiveNet) GuardTokens(sc *Scenario) {
	for i, r := range ln.Routers {
		if r == nil {
			continue
		}
		r.SetTokenAuthority(token.NewAuthority(TokenKey(i)))
		for _, p := range RouterPorts(sc, i) {
			r.RequireToken(p)
		}
	}
}

// Dropped sums the frames discarded by fault injection across all links.
func (ln *LiveNet) Dropped() uint64 {
	var n uint64
	for _, links := range [][]*livenet.Link{ln.Links, ln.HostLinks} {
		for _, l := range links {
			if l != nil {
				n += l.Dropped()
			}
		}
	}
	return n
}

// RouterDrops sums the routers' drop counters.
func (ln *LiveNet) RouterDrops() uint64 {
	return ln.RouterCounters().TotalDrops()
}

// RouterCounters merges every router's counter snapshot into one
// stats.Counters, the substrate-neutral surface the differential suite
// diffs against netsim's.
func (ln *LiveNet) RouterCounters() stats.Counters {
	var c stats.Counters
	for _, r := range ln.Routers {
		if r != nil {
			c.Merge(r.Stats())
		}
	}
	return c
}

// InstallEcho registers the harness protocol on every host in ln:
// requests are recorded and echoed along the accumulated return route,
// replies are recorded. Handlers run on host goroutines; Result is
// locked.
func (ln *LiveNet) InstallEcho(sc *Scenario, res *Result) {
	for i, h := range ln.Hosts {
		if h == nil {
			continue
		}
		name := HostName(i)
		h.Handle(0, func(d livenet.Delivery) {
			id, kind, ok := ParseData(d.Data)
			if !ok || id == 0 || int(id) > len(sc.Flows) {
				res.AddGarbled()
				return
			}
			switch kind {
			case kindRequest:
				f := sc.Flows[id-1]
				ret := d.ReturnRoute.Segments(nil)
				res.AddDelivery(id, DeliveryRec{
					Host:   name,
					Fp:     Fingerprint(ret),
					DataOK: bytes.Equal(d.Data, FlowData(f)),
				})
				if err := h.Send(ret, ReplyData(id)); err != nil {
					res.AddSendErr()
				}
			case kindReply:
				res.AddReply(id, name)
			default:
				res.AddGarbled()
			}
		})
	}
}

// Settle polls until the result and fault counters stop changing for a
// stretch of quietPolls, or the deadline passes. With goroutines there
// is no virtual clock to drain, so stability is the quiesce criterion.
func (ln *LiveNet) Settle(res *Result, deadline time.Duration) {
	const (
		pollEvery  = 2 * time.Millisecond
		quietPolls = 30
	)
	type snap struct {
		deliv, reply, garbled, sendErrs int
		dropped, routerDrops            uint64
	}
	take := func() snap {
		d, r, g, s := res.Counts()
		return snap{d, r, g, s, ln.Dropped(), ln.RouterDrops()}
	}
	last := take()
	quiet := 0
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		time.Sleep(pollEvery)
		cur := take()
		if cur == last {
			quiet++
			if quiet >= quietPolls {
				return
			}
			continue
		}
		quiet = 0
		last = cur
	}
}

// RunLivenetTraced injects every flow into the livenet realization with
// a flow-keyed hop-trace Recorder installed on the network, waits for
// quiesce, stops the network, and returns the observations, the merged
// router counters for generic diffing against the other substrate, and
// the recorder, so a divergence found afterwards can be explained hop by
// hop.
func RunLivenetTraced(sc *Scenario, routes map[uint64][]viper.Segment, deadline time.Duration) (*Result, stats.Counters, *trace.Recorder) {
	rec := trace.NewRecorder(TraceID)
	ln := BuildLivenet(sc, 0, 1, livenet.DefaultLinkDepth, livenet.WithTracer(rec))
	defer ln.Net.Stop()
	res := NewResult()
	ln.InstallEcho(sc, res)
	for _, f := range sc.Flows {
		if err := ln.Hosts[f.Src].Send(routes[f.ID], FlowData(f)); err != nil {
			res.AddSendErr()
		}
	}
	ln.Settle(res, deadline)
	return res, ln.RouterCounters(), rec
}
