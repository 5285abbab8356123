// Command sirpentd is the Sirpent daemon. It has five roles, selected
// by subcommand:
//
//	sirpentd run
//	sirpentd dir     [-addr 127.0.0.1:0] [-seed N] [-peers N]
//	sirpentd peer    [-index I] [-peers N] [-seed N] [-dir URL] [-udp 127.0.0.1:0]
//	                 [-settle 30s] [-failover-link L]
//	                 [-gateway] [-gateway-listen 127.0.0.1:0] [-debug ADDR]
//	sirpentd gateway [-listen 127.0.0.1:1080] [-hops N]
//	sirpentd report  [-dir URL]
//
// `run` (the default) is a cluster of one: daemon.RunCluster with a
// single in-process peer, which fetches its routes and tokens from a
// directory served in the same process, pushes the seeded workload
// through its token-guarded livenet routers, and is judged by the
// cluster verdict, including parity with the single-process run of the
// same seed. It prints the merged report and the PASS line, or fails.
//
// `dir` serves the internetwork directory (§3) as a network service:
// peers register their UDP socket addresses with it, discover each
// other, and fetch source routes whose segments carry port tokens —
// route and token issue are deterministic, so any number of processes
// agree on the wire bytes. The first stdout line is
// `SIRPENT_DIR_URL=<url>` so scripts can find a dynamically bound
// port.
//
// `peer` realizes one partition of a seeded conformance scenario on a
// local livenet substrate, with cross-partition links carried over
// real UDP sockets (Sirpent-over-IP encapsulation, §2.3), runs its
// share of the workload, reports evidence to the directory, and exits.
// With -gateway, the peers owning the scenario's gateway hosts also
// bind a SOCKS5 ingress and a dialing egress on them (DESIGN.md §13),
// so real TCP streams transit the same cluster, and every peer holds
// its drain barrier until the launcher raises the directory's
// shutdown latch. Every peer traces every packet across process
// boundaries and ships one cumulative snapshot of its evidence —
// deliveries, router, tunnel and relay counters, trace spans,
// flight-recorder anomalies — to the directory every 500 ms and a
// final one after its drain barrier; GET /debug/cluster serves each
// peer's latest with the merged stages. With -debug ADDR the peer also
// serves /healthz, /debug/vars, /debug/ledger, /debug/flightrec and
// /debug/pprof/ until it exits, and advertises the URL in its
// registration.
//
// `report` fetches that merged view from a running cluster's directory
// and renders the per-peer, per-stage, per-tunnel and billing tables.
//
// `gateway` is the standalone single-process proxy: a SOCKS5 listener
// whose accepted streams ride VMTP packet groups across an in-process
// token-guarded router chain to a dialing egress. Point curl at it:
// `curl --socks5-hostname <addr> http://example.com/`. The first
// stdout line is `SIRPENT_SOCKS_ADDR=<addr>`.
//
// cmd/sirpent-cluster runs a directory plus N `peer` processes as a
// full localhost cluster run with verification (daemon.RunCluster).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/daemon"
	"repro/internal/directory"
)

func main() {
	args := os.Args[1:]
	sub := "run"
	if len(args) > 0 {
		sub, args = args[0], args[1:]
	}
	var err error
	switch sub {
	case "run":
		err = runOne(args)
	case "dir":
		err = dirCmd(args)
	case "peer":
		err = daemon.PeerMain(args)
	case "gateway":
		err = gatewayCmd(args)
	case "report":
		err = reportCmd(args)
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "sirpentd: unknown subcommand %q\n\n", sub)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sirpentd:", err)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprintln(w, `usage: sirpentd [run|dir|peer|gateway|report] [flags]

  run      a cluster of one: directory and one peer in this process, judged (default)
  dir      serve the directory service for a cluster
  peer     join a cluster as one partition of the scenario
  gateway  serve a SOCKS5 proxy whose streams ride a token-guarded Sirpent chain
  report   fetch and render a cluster's merged report from its directory

Run 'sirpentd <role> -h' for the role's flags.`)
}

func runOne(args []string) error {
	flag.NewFlagSet("sirpentd run", flag.ExitOnError).Parse(args)
	cl, pass, err := daemon.RunCluster(daemon.ClusterConfig{
		Peers: 1,
		Logf:  func(format string, a ...any) { fmt.Printf(format+"\n", a...) },
	})
	if cl != nil {
		fmt.Print(daemon.FormatCluster(cl))
	}
	if err != nil {
		return err
	}
	fmt.Println(pass)
	return nil
}

func dirCmd(args []string) error {
	fs := flag.NewFlagSet("sirpentd dir", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "TCP listen address")
	seed := fs.Int64("seed", 1, "conformance scenario seed")
	peers := fs.Int("peers", 2, "expected cluster size")
	fs.Parse(args)

	ds, err := daemon.StartDir(daemon.DirConfig{Addr: *addr, Seed: *seed, Peers: *peers})
	if err != nil {
		return err
	}
	// Machine-readable first line: scripts parse this to find a
	// dynamically bound port.
	fmt.Printf("SIRPENT_DIR_URL=%s\n", ds.URL)
	fmt.Printf("serving scenario seed=%d (%d routers, %d hosts, %d flows) for %d peers\n",
		*seed, ds.Scenario.NRouters, len(ds.Scenario.HostRouter), len(ds.Scenario.Flows), *peers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ds.Close()
	}()
	return ds.Wait()
}

func reportCmd(args []string) error {
	fs := flag.NewFlagSet("sirpentd report", flag.ExitOnError)
	dir := fs.String("dir", "", "directory service base URL (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("report: -dir is required")
	}
	cr, err := directory.NewClient(*dir).Cluster()
	if err != nil {
		return err
	}
	cl, err := daemon.DecodeCluster(cr)
	if err != nil {
		return err
	}
	fmt.Print(daemon.FormatCluster(cl))
	return nil
}

func gatewayCmd(args []string) error {
	fs := flag.NewFlagSet("sirpentd gateway", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:1080", "SOCKS5 listen address")
	hops := fs.Int("hops", 2, "routers in the token-guarded chain")
	fs.Parse(args)

	gs, err := daemon.StartGateway(daemon.GatewayConfig{Hops: *hops, Listen: *listen})
	if err != nil {
		return err
	}
	defer gs.Close()
	// Machine-readable first line, like `dir`: launchers and scripts
	// parse this to find a dynamically bound port.
	fmt.Printf("SIRPENT_SOCKS_ADDR=%s\n", gs.Addr())
	fmt.Printf("SOCKS5 proxy over a %d-router token-guarded chain; ^C to stop\n", *hops)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	is, es := gs.IngressStats(), gs.EgressStats()
	fmt.Printf("ingress: streams=%d clean=%d resets=%d in=%dB out=%dB socks-errs=%d\n",
		is.Streams, is.CleanCloses, is.Resets, is.BytesIn, is.BytesOut, is.SocksErrors)
	fmt.Printf("egress:  streams=%d clean=%d resets=%d in=%dB out=%dB dial-errs=%d\n",
		es.Streams, es.CleanCloses, es.Resets, es.BytesIn, es.BytesOut, es.DialErrors)
	for acct, u := range gs.Bill() {
		fmt.Printf("account %d billed: %d packets, %d bytes\n", acct, u.Packets, u.Bytes)
	}
	if problems := gs.Reconcile(); len(problems) > 0 {
		return fmt.Errorf("ledger reconciliation failed: %v", problems)
	}
	return nil
}
