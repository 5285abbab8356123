package daemon

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/directory"
	"repro/internal/gateway"
	"repro/internal/viper"
)

// ClusterConfig describes one localhost cluster run: a directory and
// Peers peers realizing one seeded scenario, plus what the run does
// besides the seeded flows. The zero Failover and GatewayBytes make a
// plain run, which Verdict also holds to the single-process run of the
// same seed.
type ClusterConfig struct {
	// Peers is the cluster size, at least 1.
	Peers int
	// Seed selects the scenario; 0 picks the first seed that suits the
	// run (clusterSeed).
	Seed int64
	// Settle is each peer's quiesce deadline (PeerConfig.SettleTimeout).
	Settle time.Duration
	// Failover takes one cross-partition tunnel down between the flow
	// waves (PeerConfig.Failover); RunCluster picks the link.
	Failover bool
	// GatewayBytes, when positive, makes the run a gateway run: the peers
	// bind SOCKS relays, and a hash-checked transfer of this many bytes
	// each way crosses the cluster before the shutdown latch is raised.
	GatewayBytes int64
	// Start starts one peer; nil runs each peer in this process, on a
	// goroutine of its own.
	Start PeerStarter
	// Logf receives the run's progress lines and the peers' own; nil
	// discards them.
	Logf func(format string, args ...any)
}

// A PeerStarter starts one cluster peer and returns a function that
// waits for it to exit; the wait fails when the peer failed or did not
// quiesce before its settle deadline.
type PeerStarter func(cfg PeerConfig) (wait func() error, err error)

// RunCluster is the one cluster run. It serves the directory in this
// process, starts the peers, drives the gateway transfer in gateway
// mode, waits for every peer, reads their snapshots back out of the
// directory and applies Verdict. The decoded cluster comes back
// whenever the snapshots could be read, even with an error, since its
// counters localize a fault.
func RunCluster(cfg ClusterConfig) (*Cluster, string, error) {
	if cfg.Peers < 1 {
		return nil, "", fmt.Errorf("daemon: a cluster needs at least 1 peer (got %d)", cfg.Peers)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := cfg.Start
	if start == nil {
		start = inProcess
	}
	if cfg.Seed == 0 {
		seed, err := clusterSeed(cfg.Peers, cfg.Failover)
		if err != nil {
			return nil, "", err
		}
		cfg.Seed = seed
	}
	sc := check.Generate(cfg.Seed)
	logf("cluster: %d peers, seed %d (%d routers, %d hosts, %d flows, %d cross-links)",
		cfg.Peers, cfg.Seed, sc.NRouters, len(sc.HostRouter), len(sc.Flows), len(check.CrossLinks(sc, cfg.Peers)))
	blip := -1
	if cfg.Failover {
		var err error
		if blip, err = pickBlipLink(sc, cfg.Peers); err != nil {
			return nil, "", err
		}
		l := sc.Links[blip]
		logf("cluster: failover smoke — link %d (r%d:%d <-> r%d:%d) dies between flow waves",
			blip, l.A, l.APort, l.B, l.BPort)
	}

	// The directory outlives the peers: they report to it, and the
	// verdict reads their snapshots back out of it.
	ds, err := StartDir(DirConfig{Addr: "127.0.0.1:0", Seed: cfg.Seed, Peers: cfg.Peers})
	if err != nil {
		return nil, "", err
	}
	defer ds.Close()
	logf("cluster: directory at %s", ds.URL)

	var fails []error
	waits := make([]func() error, 0, cfg.Peers)
	for i := 0; i < cfg.Peers; i++ {
		wait, err := start(PeerConfig{
			Index: i, Total: cfg.Peers, Seed: cfg.Seed, DirURL: ds.URL,
			SettleTimeout: cfg.Settle, Failover: cfg.Failover, BlipLink: blip,
			Gateway: cfg.GatewayBytes > 0, Logf: logf,
		})
		if err != nil {
			// The peers already started fail their join once the
			// directory is gone; wait for them below.
			fails = append(fails, fmt.Errorf("start peer %d: %w", i, err))
			ds.Close()
			break
		}
		waits = append(waits, wait)
	}
	client := directory.NewClient(ds.URL)

	// Gateway mode: the peers hold their drain barrier for the shutdown
	// latch, so the transfer runs on a live mesh; the latch goes up
	// whatever the transfer's outcome, so the peers drain and report.
	if cfg.GatewayBytes > 0 && len(fails) == 0 {
		if err := driveGateway(client, cfg.Peers, cfg.GatewayBytes, logf); err != nil {
			fails = append(fails, err)
		}
		if err := client.Shutdown(); err != nil {
			fails = append(fails, fmt.Errorf("raise shutdown latch: %w", err))
		}
	}
	for i, wait := range waits {
		if err := wait(); err != nil {
			fails = append(fails, fmt.Errorf("peer %d exited: %w", i, err))
		}
	}

	// Read the snapshots even when a peer failed: an incomplete peer
	// still ships its final snapshot, one that died leaves its last
	// periodic one, and the counters localize the fault (tunnel drop vs
	// router drop vs wire loss). Every peer has exited, so a short wait
	// is enough.
	cr, err := client.WaitCluster(10 * time.Second)
	if err != nil && len(cr.Nodes) == 0 {
		return nil, "", errors.Join(append(fails, fmt.Errorf("collect reports: %w", err))...)
	}
	cl, err := DecodeCluster(cr)
	if err != nil {
		return nil, "", err
	}
	if len(fails) > 0 {
		return cl, "", errors.Join(fails...)
	}
	pass, err := Verdict(cl, cfg)
	return cl, pass, err
}

// inProcess is the default PeerStarter: the peer runs on a goroutine.
func inProcess(cfg PeerConfig) (func() error, error) {
	done := make(chan error, 1)
	go func() { done <- runPeer(cfg) }()
	return func() error { return <-done }, nil
}

// ExecPeers returns a PeerStarter that runs each peer as
// `bin peer <PeerArgs>` and writes every line the child prints, tagged
// with the peer's name, to the run's Logf.
func ExecPeers(bin string) PeerStarter {
	return func(cfg PeerConfig) (func() error, error) {
		cmd := exec.Command(bin, append([]string{"peer"}, PeerArgs(cfg)...)...)
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		lines := bufio.NewScanner(out)
		done := make(chan struct{})
		go func() {
			for lines.Scan() {
				cfg.logf("%s | %s", check.PeerName(cfg.Index), lines.Text())
			}
			io.Copy(io.Discard, out) // past an over-long line, so the child never blocks
			close(done)
		}()
		// Wait closes the pipe, so it waits for the last line first.
		return func() error { <-done; return cmd.Wait() }, nil
	}
}

// PeerArgs builds the peer command line, the flags after `peer` that
// PeerMain parses back into cfg. Logf has no flag: a peer process
// prints its progress on stdout.
func PeerArgs(cfg PeerConfig) []string {
	args := []string{"-index", strconv.Itoa(cfg.Index), "-peers", strconv.Itoa(cfg.Total),
		"-seed", strconv.FormatInt(cfg.Seed, 10), "-dir", cfg.DirURL}
	if cfg.UDPAddr != "" {
		args = append(args, "-udp", cfg.UDPAddr)
	}
	if cfg.SettleTimeout != 0 {
		args = append(args, "-settle", cfg.SettleTimeout.String())
	}
	if cfg.Failover {
		args = append(args, "-failover-link", strconv.Itoa(cfg.BlipLink))
	}
	if cfg.Gateway {
		args = append(args, "-gateway")
	}
	if cfg.GatewayListen != "" {
		args = append(args, "-gateway-listen", cfg.GatewayListen)
	}
	if cfg.Debug != "" {
		args = append(args, "-debug", cfg.Debug)
	}
	return args
}

// parsePeerArgs parses the peer command line PeerArgs builds. A flag
// error exits the process, as a command's flag parsing does.
func parsePeerArgs(args []string) (PeerConfig, error) {
	fs := flag.NewFlagSet("sirpentd peer", flag.ExitOnError)
	index := fs.Int("index", 0, "this peer's index (0-based)")
	peers := fs.Int("peers", 2, "cluster size")
	seed := fs.Int64("seed", 1, "conformance scenario seed (must match the directory's)")
	dir := fs.String("dir", "", "directory service base URL (required)")
	udp := fs.String("udp", "127.0.0.1:0", "UDP bridge listen address")
	settle := fs.Duration("settle", 30*time.Second, "quiesce deadline")
	failoverLink := fs.Int("failover-link", -1, "failover smoke: flow routes carry in-header alternates, and this global link's tunnel goes down between flow waves (-1 = off)")
	gw := fs.Bool("gateway", false, "gateway mode: bind SOCKS relays on the scenario's gateway hosts and hold for the cluster run's shutdown latch")
	gwListen := fs.String("gateway-listen", "127.0.0.1:0", "ingress SOCKS listen address (gateway mode)")
	debug := fs.String("debug", "", "serve /healthz, /debug/vars, /debug/ledger, /debug/flightrec and /debug/pprof/ on this address until the peer exits (\"\" = off)")
	fs.Parse(args)
	if *dir == "" {
		return PeerConfig{}, fmt.Errorf("peer: -dir is required")
	}
	return PeerConfig{
		Index:         *index,
		Total:         *peers,
		Seed:          *seed,
		DirURL:        *dir,
		UDPAddr:       *udp,
		SettleTimeout: *settle,
		Failover:      *failoverLink >= 0,
		BlipLink:      *failoverLink,
		Gateway:       *gw,
		GatewayListen: *gwListen,
		Debug:         *debug,
	}, nil
}

// PeerMain is a peer process: `sirpentd peer`, and a test binary run
// as `<binary> peer`. It parses the peer command line, runs the peer
// with its progress lines on stdout, and fails when the peer did not
// quiesce before its settle deadline.
func PeerMain(args []string) error {
	cfg, err := parsePeerArgs(args)
	if err != nil {
		return err
	}
	cfg.Logf = func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	return runPeer(cfg)
}

// runPeer runs one peer to completion and fails when it did not
// quiesce before its settle deadline.
func runPeer(cfg PeerConfig) error {
	rep, err := Peer(cfg)
	if err != nil {
		return err
	}
	if !rep.Complete {
		return fmt.Errorf("peer %d: settle deadline passed before quiesce (its hosts saw %d flows' requests and %d flows' replies)",
			cfg.Index, len(rep.Flows.Delivered), len(rep.Flows.Replied))
	}
	return nil
}

// clusterSeed picks the first seed whose scenario gives every one of n
// peers a router and, with more than one peer, crosses the partition,
// so the run exercises the UDP tunnels rather than one process doing
// all the work. A failover run also needs a link pickBlipLink accepts,
// which a cluster of one has not.
func clusterSeed(n int, failover bool) (int64, error) {
	for seed := int64(1); seed < 1000; seed++ {
		sc := check.Generate(seed)
		if sc.NRouters < n || (n > 1 && len(check.CrossLinks(sc, n)) == 0) {
			continue
		}
		if failover {
			if _, err := pickBlipLink(sc, n); err != nil {
				continue
			}
		}
		return seed, nil
	}
	return 0, fmt.Errorf("daemon: no seed under 1000 yields a %d-peer scenario (failover=%v)", n, failover)
}

// pickBlipLink chooses the cross-partition link the failover smoke
// kills. Wave-1 flows (odd scenario indexes) run after the link dies,
// so every one of them crossing it must do so at a DAG hop — a linear
// hop into a dead link is a lost transaction — and at least one must
// actually cross, or the smoke proves nothing. Routes are computed
// locally with the same directory code the directory serves, so the
// walk sees exactly the segment lists the peers will inject.
func pickBlipLink(sc *check.Scenario, n int) (int, error) {
	routes, err := check.FlowRoutesAlt(check.BuildNetsim(sc), sc, FailoverAlternates)
	if err != nil {
		return -1, fmt.Errorf("failover smoke: compute routes: %w", err)
	}
	best, bestCount := -1, 0
	for _, li := range check.CrossLinks(sc, n) {
		count, ok := 0, true
		for fi, f := range sc.Flows {
			if fi%2 != 1 {
				continue // wave-0 flow: completes before the link dies
			}
			dag, crossed := crossesLink(sc, routes[f.ID], f.Src, li)
			if !crossed {
				continue
			}
			if !dag {
				ok = false
				break
			}
			count++
		}
		if ok && count > bestCount {
			best, bestCount = li, count
		}
	}
	if best < 0 {
		return -1, fmt.Errorf("failover smoke: no cross-link is crossed only at DAG hops by wave-1 flows (try another seed)")
	}
	return best, nil
}

// crossesLink walks a flow's primary route across the topology and
// reports whether it traverses global link li — and if so, whether
// the hop entering the link carries in-header alternates.
func crossesLink(sc *check.Scenario, route []viper.Segment, src, li int) (dag, crossed bool) {
	cur := sc.HostRouter[src]
	for i := 1; i < len(route); i++ {
		seg := &route[i]
		next := -1
		for j, l := range sc.Links {
			if l.A == cur && l.APort == seg.Port {
				next = l.B
			} else if l.B == cur && l.BPort == seg.Port {
				next = l.A
			} else {
				continue
			}
			if j == li {
				return viper.IsDAGSegment(seg), true
			}
			break
		}
		if next < 0 {
			return false, false // left the trunk mesh: host-attachment hop
		}
		cur = next
	}
	return false, false
}

// driveGateway pushes a gateway run's transfer: an echo server as the
// real destination, a SOCKS dial through the ingress one of the n peers
// advertised when it registered, and total bytes each way whose hashes
// must match.
func driveGateway(client *directory.Client, n int, total int64, logf func(string, ...any)) error {
	peers, err := client.WaitPeers(n, 30*time.Second)
	if err != nil {
		return fmt.Errorf("wait for the SOCKS ingress: %w", err)
	}
	var socks string
	for _, p := range peers {
		if p.Socks != "" {
			socks = p.Socks
		}
	}
	if socks == "" {
		return fmt.Errorf("no peer registered a SOCKS ingress")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				io.Copy(c, c)
				c.(*net.TCPConn).CloseWrite()
			}(c)
		}
	}()
	logf("cluster: SOCKS ingress at %s, echoing %d bytes through the mesh...", socks, total)

	conn, err := gateway.DialSocks(socks, ln.Addr().String())
	if err != nil {
		return fmt.Errorf("SOCKS dial: %w", err)
	}
	defer conn.Close()

	start := time.Now()
	var wg sync.WaitGroup
	var sentSum, gotSum [32]byte
	var got int64
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := sha256.New()
		got, readErr = io.Copy(h, conn)
		h.Sum(gotSum[:0])
	}()
	h := sha256.New()
	if _, err := io.Copy(io.MultiWriter(conn, h), io.LimitReader(rand.New(rand.NewSource(42)), total)); err != nil {
		return fmt.Errorf("gateway write: %w", err)
	}
	h.Sum(sentSum[:0])
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	wg.Wait()
	if readErr != nil {
		return fmt.Errorf("gateway read back: %w", readErr)
	}
	if got != total {
		return fmt.Errorf("echoed %d bytes, want %d", got, total)
	}
	if sentSum != gotSum {
		return fmt.Errorf("echo bytes differ from sent bytes (hash mismatch)")
	}
	el := time.Since(start)
	logf("cluster: transfer OK — %d bytes each way in %v (%.1f MB/s round trip), hashes match",
		total, el.Round(time.Millisecond), float64(2*total)/el.Seconds()/1e6)
	return nil
}
