package directory

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/token"
)

// netServiceFixture serves the diamond topology with R1 token-guarded,
// over a real HTTP listener.
func netServiceFixture(t *testing.T, expect int) (*Client, *Service) {
	t.Helper()
	svc := NewService(sim.NewEngine(0), diamond())
	svc.RegisterAuthority("R1", token.NewAuthority([]byte("net-svc-key")))
	ns := NewNetService(svc, expect)
	srv := httptest.NewServer(ns.Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), svc
}

// TestNetServiceRouteParity pins the property the cross-process runs
// depend on: a route fetched over HTTP is identical — segments, port
// tokens, path, attributes — to the same query answered in-process.
// Token issue is deterministic HMAC, so even the token bytes match.
func TestNetServiceRouteParity(t *testing.T) {
	client, svc := netServiceFixture(t, 1)
	q := Query{From: "hA", To: "hB", Pref: MinDelay, Account: 42, Count: 2}

	local, err := svc.Routes(q)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := client.Routes(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(local) {
		t.Fatalf("remote returned %d routes, local %d", len(remote), len(local))
	}
	for i := range local {
		if !reflect.DeepEqual(normalize(local[i]), normalize(remote[i])) {
			t.Fatalf("route %d diverges across the wire:\nlocal:  %+v\nremote: %+v", i, local[i], remote[i])
		}
	}
	// The guarded hop must actually carry a token after the round trip.
	found := false
	for _, s := range remote[0].Segments {
		if len(s.PortToken) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no segment of the remote route carries a port token")
	}
}

// normalize maps empty byte slices to nil so JSON round-tripping of
// zero-length fields (nil vs []byte{}) does not read as divergence —
// both encode to the same wire bytes.
func normalize(r Route) Route {
	for i := range r.Segments {
		if len(r.Segments[i].PortToken) == 0 {
			r.Segments[i].PortToken = nil
		}
		if len(r.Segments[i].PortInfo) == 0 {
			r.Segments[i].PortInfo = nil
		}
	}
	return r
}

// TestNetServiceRegistrationAndBarrier walks the cluster-formation
// protocol: peers register, discover the full sorted set, and a
// barrier releases exactly when the last expected peer arrives.
func TestNetServiceRegistrationAndBarrier(t *testing.T) {
	client, _ := netServiceFixture(t, 2)

	if _, err := client.Register(PeerReg{Name: "peer1", UDPAddr: "127.0.0.1:1111", Nodes: []string{"R1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Register(PeerReg{Name: "peer0", UDPAddr: "127.0.0.1:1110", Nodes: []string{"R2"}}); err != nil {
		t.Fatal(err)
	}
	peers, err := client.WaitPeers(2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if peers[0].Name != "peer0" || peers[1].Name != "peer1" {
		t.Fatalf("peer set not sorted by name: %+v", peers)
	}

	// First arrival parks; the barrier opens when the second posts.
	var wg sync.WaitGroup
	released := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := client.Barrier("peer0", "up"); err != nil {
			t.Errorf("barrier peer0: %v", err)
		}
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("barrier released before all peers arrived")
	case <-time.After(50 * time.Millisecond):
	}
	if err := client.Barrier("peer1", "up"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestNetServiceUsageAndReports covers the accounting and report
// edges: usage posts merge into the directory's bill, each peer's
// latest snapshot wins by seq (a late, lower-seq post never replaces
// it), and the cluster is Complete only once every expected peer's
// latest snapshot is final.
func TestNetServiceUsageAndReports(t *testing.T) {
	client, _ := netServiceFixture(t, 2)

	if err := client.ReportUsage("R1", map[uint32]token.Usage{7: {Packets: 3, Bytes: 300}}); err != nil {
		t.Fatal(err)
	}
	if err := client.ReportUsage("R2", map[uint32]token.Usage{7: {Packets: 1, Bytes: 50}}); err != nil {
		t.Fatal(err)
	}
	bill, err := client.Bill()
	if err != nil {
		t.Fatal(err)
	}
	if got := bill[7]; got.Packets != 4 || got.Bytes != 350 {
		t.Fatalf("bill[7] = %+v, want merged {4, 350}", got)
	}

	type snap struct {
		Peer      string `json:"peer"`
		Seq       uint64 `json:"seq"`
		Final     bool   `json:"final"`
		Delivered int    `json:"delivered"`
	}
	post := func(s snap) {
		t.Helper()
		if err := client.Telemetry(s); err != nil {
			t.Fatal(err)
		}
	}
	nodes := func(cr ClusterReport) []snap {
		t.Helper()
		out := make([]snap, len(cr.Nodes))
		for i, raw := range cr.Nodes {
			if err := json.Unmarshal(raw, &out[i]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	if err := client.Telemetry(snap{Seq: 1}); err == nil {
		t.Fatal("a snapshot without a peer name was accepted")
	}
	post(snap{Peer: "peer0", Seq: 1, Delivered: 1})
	post(snap{Peer: "peer0", Seq: 2, Final: true, Delivered: 5})
	post(snap{Peer: "peer0", Seq: 1, Delivered: 1}) // a periodic post arriving late
	post(snap{Peer: "peer1", Seq: 3, Delivered: 2})
	cr, err := client.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Complete() || cr.Final != 1 {
		t.Fatalf("cluster complete=%v with %d/%d final, want incomplete while peer1 is not final",
			cr.Complete(), cr.Final, cr.Expect)
	}
	want := []snap{{"peer0", 2, true, 5}, {"peer1", 3, false, 2}}
	if got := nodes(cr); !reflect.DeepEqual(got, want) {
		t.Fatalf("latest snapshots = %+v, want %+v", got, want)
	}
	if _, err := client.WaitCluster(50 * time.Millisecond); err == nil {
		t.Fatal("WaitCluster completed with peer1's latest snapshot non-final")
	}

	post(snap{Peer: "peer1", Seq: 4, Final: true, Delivered: 6})
	cr, err = client.WaitCluster(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want[1] = snap{"peer1", 4, true, 6}
	if got := nodes(cr); !reflect.DeepEqual(got, want) {
		t.Fatalf("latest snapshots = %+v, want %+v", got, want)
	}
	if got := cr.Bill[7]; got.Packets != 4 || got.Bytes != 350 {
		t.Fatalf("cluster bill[7] = %+v, want merged {4, 350}", got)
	}
}
