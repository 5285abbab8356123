// Command sirpent-cluster runs a localhost Sirpent cluster: the
// directory, served in this process, plus N `sirpentd peer` processes
// that each realize one partition of a seeded conformance scenario and
// carry cross-partition links over real UDP sockets. The run is
// daemon.RunCluster with each peer started as a child process.
//
// After every peer exits, the run reads each peer's final snapshot
// back out of the directory and applies daemon.Verdict: every flow
// delivered and echoed exactly once across process boundaries, the
// merged per-account ledger internally reconciled and equal to the
// directory's bill, trace spans accounting for every traced crossing,
// and, on a plain run, per-account totals and every flow's return
// route identical to a single-process livenet run of the same seed.
// Exit status 0 means the whole verdict passed; anything else is a
// failure (and CI treats it as such — see the cluster-smoke job).
//
// With -gateway, the peers additionally bind SOCKS gateway relays on
// the scenario's deterministic gateway hosts, and the run pushes a
// hash-verified TCP transfer (-gateway-bytes each way) through
// SOCKS → multi-process mesh → egress → a local echo server before
// raising the directory's shutdown latch. The verdict then also
// requires stream byte conservation across the relays and the gateway
// account billed in the merged ledger (DESIGN.md §13).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/daemon"
)

func main() {
	var cfg daemon.ClusterConfig
	flag.IntVar(&cfg.Peers, "n", 3, "number of peer processes")
	flag.Int64Var(&cfg.Seed, "seed", 0, "scenario seed (0 = first seed with enough routers and cross-links)")
	sirpentd := flag.String("sirpentd", "", "path to the sirpentd binary (default: next to this launcher, else $PATH)")
	flag.DurationVar(&cfg.Settle, "settle", 30*time.Second, "per-peer quiesce deadline")
	gw := flag.Bool("gateway", false, "gateway mode: run peers with SOCKS relays and push a hash-verified TCP transfer through the cluster")
	gwBytes := flag.Int64("gateway-bytes", 10<<20, "bytes to transfer each way through the gateway (gateway mode)")
	report := flag.Bool("report", false, "print the merged cluster report after the run (it is printed on any failure regardless)")
	flag.BoolVar(&cfg.Failover, "failover", false, "failover smoke: kill one cross-partition tunnel mid-run and require zero lost transactions (flow routes carry in-header alternates)")
	flag.Parse()

	if err := run(cfg, *sirpentd, *gw, *gwBytes, *report); err != nil {
		fmt.Fprintln(os.Stderr, "sirpent-cluster:", err)
		os.Exit(1)
	}
}

func run(cfg daemon.ClusterConfig, sirpentd string, gw bool, gwBytes int64, report bool) error {
	if gw {
		if gwBytes <= 0 {
			return fmt.Errorf("-gateway-bytes must be positive (got %d)", gwBytes)
		}
		cfg.GatewayBytes = gwBytes
	}
	bin, err := findSirpentd(sirpentd)
	if err != nil {
		return err
	}
	cfg.Start = daemon.ExecPeers(bin)
	cfg.Logf = func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	cl, pass, err := daemon.RunCluster(cfg)
	if cl != nil && (report || err != nil) {
		fmt.Print(daemon.FormatCluster(cl))
	}
	if err != nil {
		return err
	}
	fmt.Println(pass)
	return nil
}

// findSirpentd resolves the sirpentd binary: explicit flag, then a
// sibling of this launcher, then $PATH.
func findSirpentd(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		sib := filepath.Join(filepath.Dir(self), "sirpentd")
		if st, err := os.Stat(sib); err == nil && !st.IsDir() {
			return sib, nil
		}
	}
	if p, err := exec.LookPath("sirpentd"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("sirpentd binary not found (use -sirpentd)")
}
