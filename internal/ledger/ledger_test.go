package ledger

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/token"
)

func TestLedgerRecordMergesAcrossRouters(t *testing.T) {
	l := New()
	l.Record("R0", map[uint32]token.Usage{
		7: {Packets: 3, Bytes: 300},
		9: {Packets: 1, Bytes: 50, Denials: 2},
	})
	l.Record("R1", map[uint32]token.Usage{
		7: {Packets: 2, Bytes: 200},
	})

	totals := l.Totals()
	if got := totals[7]; got != (Entry{Packets: 5, Bytes: 500}) {
		t.Fatalf("account 7 totals = %+v", got)
	}
	if got := totals[9]; got != (Entry{Packets: 1, Bytes: 50, Denials: 2}) {
		t.Fatalf("account 9 totals = %+v", got)
	}

	// A later sweep replaces the router's snapshot (caches are
	// monotonic), it does not double-count.
	l.Record("R0", map[uint32]token.Usage{7: {Packets: 4, Bytes: 400}})
	if got := l.Totals()[7]; got != (Entry{Packets: 6, Bytes: 600}) {
		t.Fatalf("after re-sweep, account 7 totals = %+v", got)
	}
	if l.Sweeps() != 3 {
		t.Fatalf("sweeps = %d, want 3", l.Sweeps())
	}
}

func TestLedgerSnapshotSortedAndJSON(t *testing.T) {
	l := New()
	l.Record("R1", map[uint32]token.Usage{20: {Packets: 1}, 10: {Packets: 2, Bytes: 64}})
	s := l.Snapshot()
	if len(s.Accounts) != 2 || s.Accounts[0].Account != 10 || s.Accounts[1].Account != 20 {
		t.Fatalf("snapshot accounts not sorted: %+v", s.Accounts)
	}
	if s.Accounts[0].Routers["R1"].Bytes != 64 {
		t.Fatalf("per-router breakdown missing: %+v", s.Accounts[0])
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-serializable: %v", err)
	}
}

// TestWriteTable pins the one billing table: accounts ascending, each
// merged across routers, and nothing at all for an empty ledger.
func TestWriteTable(t *testing.T) {
	var b strings.Builder
	New().WriteTable(&b, "billing")
	if b.Len() != 0 {
		t.Fatalf("empty ledger wrote %q", b.String())
	}
	l := New()
	l.Record("R1", map[uint32]token.Usage{20: {Packets: 1, Bytes: 10}, 10: {Packets: 2, Bytes: 64}})
	l.Record("R2", map[uint32]token.Usage{10: {Packets: 3, Bytes: 96, Denials: 1}})
	l.WriteTable(&b, "billing")
	want := "billing:\n" +
		"  account     packets        bytes  denials\n" +
		"  10                5          160        1\n" +
		"  20                1           10        0\n"
	if b.String() != want {
		t.Fatalf("table:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestReconcile(t *testing.T) {
	l := New()
	l.Record("R0", map[uint32]token.Usage{1: {Packets: 4, Bytes: 400}})
	l.Record("R1", map[uint32]token.Usage{1: {Packets: 2, Bytes: 200}})

	balanced := stats.Counters{Forwarded: 10, TokenAuthorized: 6}
	if diffs := Reconcile("sim", l, balanced); len(diffs) != 0 {
		t.Fatalf("balanced books reported diffs: %v", diffs)
	}
	short := stats.Counters{Forwarded: 10, TokenAuthorized: 5}
	if diffs := Reconcile("sim", l, short); len(diffs) != 1 {
		t.Fatalf("unbalanced books passed: %v", diffs)
	}
}

func TestCollectorSweepsSources(t *testing.T) {
	l := New()
	c := NewCollector(l)
	var mu sync.Mutex
	usage := map[uint32]token.Usage{5: {Packets: 1, Bytes: 10}}
	c.AddAccountSource("R0", func() map[uint32]token.Usage {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[uint32]token.Usage, len(usage))
		for k, v := range usage {
			out[k] = v
		}
		return out
	})
	c.AddCongestionSource("R0", func() NodeCongestion {
		return NodeCongestion{CongestionCounters: CongestionCounters{SignalsReceived: 3}}
	})

	c.Collect()
	if got := l.Totals()[5]; got != (Entry{Packets: 1, Bytes: 10}) {
		t.Fatalf("after collect, totals = %+v", got)
	}
	cong := c.Congestion()
	if len(cong) != 1 || cong[0].Node != "R0" || cong[0].SignalsReceived != 3 {
		t.Fatalf("congestion = %+v", cong)
	}

	// Periodic run: bump the source, let the ticker sweep, stop (which
	// performs a final sweep).
	mu.Lock()
	usage[5] = token.Usage{Packets: 9, Bytes: 90}
	mu.Unlock()
	stop := c.Run(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	stop()
	stop() // idempotent
	if got := l.Totals()[5]; got != (Entry{Packets: 9, Bytes: 90}) {
		t.Fatalf("after run, totals = %+v", got)
	}
}

func TestRampStateNames(t *testing.T) {
	if RampHolding.String() != "holding" || RampRamping.String() != "ramping" {
		t.Fatalf("ramp state names changed: %q %q", RampHolding, RampRamping)
	}
	b, err := json.Marshal(LimitStatus{State: RampRamping})
	if err != nil || !json.Valid(b) {
		t.Fatalf("limit status marshal: %s %v", b, err)
	}
}
