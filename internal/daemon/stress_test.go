package daemon

import (
	"os"
	"sync"
	"testing"
	"time"
)

// TestClusterThreePeerStress hammers the exact configuration the
// launcher smoke-test runs (3 peers, first auto-selected seed) to
// flush out startup races. Enabled by SIRPENTD_STRESS=1.
func TestClusterThreePeerStress(t *testing.T) {
	if os.Getenv("SIRPENTD_STRESS") == "" {
		t.Skip("set SIRPENTD_STRESS=1 to run")
	}
	const total = 3
	seed := clusterSeed(t, total, total)
	for round := 0; round < 60; round++ {
		ds, err := StartDir(DirConfig{Addr: "127.0.0.1:0", Seed: seed, Peers: total})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, total)
		for i := 0; i < total; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = Peer(PeerConfig{
					Index: i, Total: total, Seed: seed, DirURL: ds.URL,
					SettleTimeout: 3 * time.Second,
				})
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: peer %d: %v", round, i, err)
			}
		}
		verifyCluster(t, ds, seed)
		ds.Close()
	}
}
