// Package ledger turns the reproduction's token accounting, congestion
// control, and anomalous forwarding events into an observable surface.
//
// The paper's port tokens exist so routers can "maintain accounting
// information such as packet or byte counts to be charged to the account
// designated by the token" (§2.2), with the directory service aggregating
// per-account usage for billing (§3). This package is the exporter side
// of that story: a Ledger holds a network-wide per-account view built
// from periodic sweeps of every router's token cache, congestion
// telemetry snapshots the rate controller's soft state, and a
// FlightRecorder keeps a bounded ring of anomalous events (drops,
// preemptions, denials, rate-limit impositions, link flaps) as always-on
// evidence.
//
// The ledger is reconciled against the forwarding plane: the sum of
// per-account packet counts must equal the stats.Counters.TokenAuthorized
// total of the routers swept — a checkable invariant the conformance
// suite enforces on both substrates.
package ledger

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/token"
)

// Entry is the accumulated usage charged to one account, on one router
// or merged across routers.
type Entry struct {
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
	Denials uint64 `json:"denials,omitempty"`
}

func (e *Entry) add(u token.Usage) {
	e.Packets += u.Packets
	e.Bytes += u.Bytes
	e.Denials += u.Denials
}

func (e *Entry) merge(o Entry) {
	e.Packets += o.Packets
	e.Bytes += o.Bytes
	e.Denials += o.Denials
}

// Ledger is a network-wide per-account usage ledger. Each router's
// contribution is a replaceable snapshot (token caches accumulate
// monotonically, so the latest sweep supersedes earlier ones), and the
// merged view sums across routers. Safe for concurrent use.
type Ledger struct {
	mu      sync.Mutex
	routers map[string]map[uint32]Entry
	sweeps  uint64
}

// New creates an empty ledger.
func New() *Ledger {
	return &Ledger{routers: make(map[string]map[uint32]Entry)}
}

// Record replaces router's per-account snapshot with totals (as returned
// by token.Cache.AccountTotals).
func (l *Ledger) Record(router string, totals map[uint32]token.Usage) {
	snap := make(map[uint32]Entry, len(totals))
	for acct, u := range totals {
		var e Entry
		e.add(u)
		snap[acct] = e
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.routers[router] = snap
	l.sweeps++
}

// Totals merges the latest snapshots of every router into one
// per-account view.
func (l *Ledger) Totals() map[uint32]Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[uint32]Entry)
	for _, snap := range l.routers {
		for acct, e := range snap {
			m := out[acct]
			m.merge(e)
			out[acct] = m
		}
	}
	return out
}

// Sweeps reports how many router snapshots have been recorded.
func (l *Ledger) Sweeps() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sweeps
}

// AccountRow is one account's line in a ledger snapshot: the merged
// totals plus the per-router breakdown.
type AccountRow struct {
	Account uint32 `json:"account"`
	Entry
	Routers map[string]Entry `json:"routers,omitempty"`
}

// Snapshot is the JSON form served at /debug/ledger.
type Snapshot struct {
	Sweeps   uint64       `json:"sweeps"`
	Accounts []AccountRow `json:"accounts"`
}

// Snapshot renders the ledger with accounts in ascending order.
func (l *Ledger) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	rows := make(map[uint32]*AccountRow)
	for router, snap := range l.routers {
		for acct, e := range snap {
			row, ok := rows[acct]
			if !ok {
				row = &AccountRow{Account: acct, Routers: make(map[string]Entry)}
				rows[acct] = row
			}
			row.Entry.merge(e)
			row.Routers[router] = e
		}
	}
	s := Snapshot{Sweeps: l.sweeps, Accounts: make([]AccountRow, 0, len(rows))}
	for _, row := range rows {
		s.Accounts = append(s.Accounts, *row)
	}
	sort.Slice(s.Accounts, func(i, j int) bool { return s.Accounts[i].Account < s.Accounts[j].Account })
	return s
}

// WriteTable writes the per-account table under title: one row per
// account, in ascending order, with its packets, bytes and denials. A
// ledger that charged no account writes nothing.
func (l *Ledger) WriteTable(w io.Writer, title string) {
	snap := l.Snapshot()
	if len(snap.Accounts) == 0 {
		return
	}
	fmt.Fprintf(w, "%s:\n  %-8s %10s %12s %8s\n", title, "account", "packets", "bytes", "denials")
	for _, row := range snap.Accounts {
		fmt.Fprintf(w, "  %-8d %10d %12d %8d\n", row.Account, row.Packets, row.Bytes, row.Denials)
	}
}

// Publish registers the ledger under name in expvar, serialized on each
// /debug/vars scrape.
func (l *Ledger) Publish(name string) {
	expvar.Publish(name, expvar.Func(func() any { return l.Snapshot() }))
}

// Reconcile checks the ledger invariant against a forwarding-plane
// counter surface (typically the merge of the swept routers' Counters):
// every token-authorized packet was charged to exactly one account, so
// the per-account packet counts must sum to TokenAuthorized. Returns a
// description of each violated clause; nil means the books balance.
func Reconcile(label string, l *Ledger, c stats.Counters) []string {
	var pkts uint64
	for _, e := range l.Totals() {
		pkts += e.Packets
	}
	var out []string
	if pkts != c.TokenAuthorized {
		out = append(out, fmt.Sprintf(
			"%s: ledger bills %d packets but forwarding plane authorized %d",
			label, pkts, c.TokenAuthorized))
	}
	return out
}

// Collector sweeps registered routers into a Ledger and caches their
// congestion telemetry. Sources are closures so the collector works
// against both substrates (and against tests) without knowing router
// types.
type Collector struct {
	mu     sync.Mutex
	ledger *Ledger
	acct   []acctSource
	cong   []congSource
	latest []NodeCongestion
}

type acctSource struct {
	router string
	totals func() map[uint32]token.Usage
}

type congSource struct {
	router string
	state  func() NodeCongestion
}

// NewCollector creates a collector feeding l.
func NewCollector(l *Ledger) *Collector {
	return &Collector{ledger: l}
}

// Ledger returns the ledger the collector feeds.
func (c *Collector) Ledger() *Ledger { return c.ledger }

// AddAccountSource registers a router's account-totals provider
// (typically its token cache's AccountTotals method).
func (c *Collector) AddAccountSource(router string, totals func() map[uint32]token.Usage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acct = append(c.acct, acctSource{router: router, totals: totals})
}

// AddCongestionSource registers a router's congestion-telemetry provider.
func (c *Collector) AddCongestionSource(router string, state func() NodeCongestion) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cong = append(c.cong, congSource{router: router, state: state})
}

// Collect performs one sweep: every account source is snapshotted into
// the ledger and every congestion source's latest state is cached.
func (c *Collector) Collect() {
	c.mu.Lock()
	acct := append([]acctSource(nil), c.acct...)
	cong := append([]congSource(nil), c.cong...)
	c.mu.Unlock()

	for _, s := range acct {
		c.ledger.Record(s.router, s.totals())
	}
	latest := make([]NodeCongestion, 0, len(cong))
	for _, s := range cong {
		n := s.state()
		n.Node = s.router
		latest = append(latest, n)
	}
	c.mu.Lock()
	c.latest = latest
	c.mu.Unlock()
}

// Congestion returns the congestion telemetry captured by the last
// Collect, one element per registered source.
func (c *Collector) Congestion() []NodeCongestion {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]NodeCongestion(nil), c.latest...)
}

// Run sweeps every interval on a wall-clock ticker until the returned
// stop function is called; stop performs a final sweep so the ledger is
// current when traffic ends. For the event-driven simulator, call
// Collect directly at virtual-time points instead.
func (c *Collector) Run(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.Collect()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			c.Collect()
		})
	}
}
