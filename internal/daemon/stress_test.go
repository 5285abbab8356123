package daemon

import (
	"os"
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
	for round := 0; round < 60; round++ {
		t.Logf("round %d", round)
		runCluster(t, ClusterConfig{Peers: 3, Settle: 3 * time.Second})
	}
}
