// Command sirpent-cluster launches a localhost Sirpent cluster: one
// `sirpentd dir` process serving the directory, plus N `sirpentd peer`
// processes that each realize one partition of a seeded conformance
// scenario and carry cross-partition links over real UDP sockets.
//
// After every peer exits, the launcher reads each peer's final
// snapshot back out of the directory and applies daemon.Verdict: every
// flow delivered and echoed exactly once across process boundaries,
// the merged per-account ledger internally reconciled and equal to the
// directory's bill, trace spans accounting for every traced crossing,
// and, on a plain run, per-account totals and every flow's return
// route identical to a single-process livenet run of the same seed.
// Exit status 0 means the whole verdict passed; anything else is a
// failure (and CI treats it as such — see the cluster-smoke job).
//
// With -gateway, the peers additionally bind SOCKS gateway relays on
// the scenario's deterministic gateway hosts, and the launcher pushes
// a hash-verified TCP transfer (-gateway-bytes each way) through
// SOCKS → multi-process mesh → egress → a local echo server before
// raising the directory's shutdown latch. The verdict then also
// requires stream byte conservation across the relays and the gateway
// account billed in the merged ledger (DESIGN.md §13).
package main

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/daemon"
	"repro/internal/directory"
	"repro/internal/gateway"
	"repro/internal/viper"
)

func main() {
	n := flag.Int("n", 3, "number of peer processes")
	seed := flag.Int64("seed", 0, "scenario seed (0 = first seed with enough routers and cross-links)")
	sirpentd := flag.String("sirpentd", "", "path to the sirpentd binary (default: next to this launcher, else $PATH)")
	settle := flag.Duration("settle", 30*time.Second, "per-peer quiesce deadline")
	gw := flag.Bool("gateway", false, "gateway mode: run peers with SOCKS relays and push a hash-verified TCP transfer through the cluster")
	gwBytes := flag.Int64("gateway-bytes", 10<<20, "bytes to transfer each way through the gateway (gateway mode)")
	report := flag.Bool("report", false, "print the merged cluster report after the run (it is printed on any failure regardless)")
	failover := flag.Bool("failover", false, "failover smoke: kill one cross-partition tunnel mid-run and require zero lost transactions (flow routes carry in-header alternates)")
	flag.Parse()

	if err := run(*n, *seed, *sirpentd, *settle, *gw, *gwBytes, *report, *failover); err != nil {
		fmt.Fprintln(os.Stderr, "sirpent-cluster:", err)
		os.Exit(1)
	}
}

func run(n int, seed int64, sirpentd string, settle time.Duration, gw bool, gwBytes int64, report, failover bool) error {
	if n < 2 {
		return fmt.Errorf("-n must be at least 2 (got %d)", n)
	}
	if gw && gwBytes <= 0 {
		return fmt.Errorf("-gateway-bytes must be positive (got %d)", gwBytes)
	}
	bin, err := findSirpentd(sirpentd)
	if err != nil {
		return err
	}
	if seed == 0 {
		seed, err = autoSeed(n, failover)
		if err != nil {
			return err
		}
	}
	sc := check.Generate(seed)
	fmt.Printf("cluster: %d peers, seed %d (%d routers, %d hosts, %d flows, %d cross-links)\n",
		n, seed, sc.NRouters, len(sc.HostRouter), len(sc.Flows), len(check.CrossLinks(sc, n)))
	blip := -1
	if failover {
		blip, err = pickBlipLink(sc, n)
		if err != nil {
			return err
		}
		l := sc.Links[blip]
		fmt.Printf("cluster: failover smoke — link %d (r%d:%d <-> r%d:%d) dies between flow waves\n",
			blip, l.A, l.APort, l.B, l.BPort)
	}

	// The directory must outlive the peers: they report to it, and we
	// read their snapshots back out of it. Kill it last.
	dir := exec.Command(bin, "dir", "-addr", "127.0.0.1:0",
		"-seed", fmt.Sprint(seed), "-peers", fmt.Sprint(n))
	dir.Stderr = os.Stderr
	dirOut, err := dir.StdoutPipe()
	if err != nil {
		return err
	}
	if err := dir.Start(); err != nil {
		return fmt.Errorf("start dir: %w", err)
	}
	defer func() {
		dir.Process.Signal(os.Interrupt)
		dir.Wait()
	}()

	url, err := readDirURL(dirOut)
	if err != nil {
		return err
	}
	fmt.Printf("cluster: directory at %s\n", url)

	peers := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		args := []string{"peer",
			"-index", fmt.Sprint(i), "-peers", fmt.Sprint(n),
			"-seed", fmt.Sprint(seed), "-dir", url,
			"-settle", settle.String()}
		if gw {
			args = append(args, "-gateway")
		}
		if blip >= 0 {
			args = append(args, "-failover-link", fmt.Sprint(blip))
		}
		p := exec.Command(bin, args...)
		p.Stdout = prefixWriter(check.PeerName(i))
		p.Stderr = prefixWriter(check.PeerName(i))
		if err := p.Start(); err != nil {
			killAll(peers[:i])
			return fmt.Errorf("start peer %d: %w", i, err)
		}
		peers[i] = p
	}
	client := directory.NewClient(url)

	// Gateway mode: with the peers running (they hold their drain
	// barrier for our shutdown latch), push a hash-verified transfer
	// through SOCKS → mesh → egress → local echo server, then raise
	// the latch so the peers drain and report.
	if gw {
		if err := driveGateway(client, gwBytes); err != nil {
			client.Shutdown() // release the peers regardless
			killErr := err
			for i, p := range peers {
				if err := p.Wait(); err != nil {
					fmt.Fprintf(os.Stderr, "cluster: peer %d exited: %v\n", i, err)
				}
			}
			return killErr
		}
		if err := client.Shutdown(); err != nil {
			return fmt.Errorf("raise shutdown latch: %w", err)
		}
	}
	var failed bool
	for i, p := range peers {
		if err := p.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "cluster: peer %d exited: %v\n", i, err)
			failed = true
		}
	}

	// Read the snapshots even when a peer failed — an incomplete peer
	// still ships its final snapshot before exiting, one that died
	// leaves its last periodic one, and the counters localize the fault
	// (tunnel drop vs router drop vs wire loss). Every peer has exited,
	// so a short wait is enough.
	cr, waitErr := client.WaitCluster(10 * time.Second)
	if waitErr != nil && len(cr.Nodes) == 0 {
		return fmt.Errorf("collect reports: %w", waitErr)
	}
	cl, err := daemon.DecodeCluster(cr)
	if err != nil {
		return err
	}
	mode := daemon.RunMode{Failover: failover}
	if gw {
		mode.GatewayBytes = uint64(gwBytes)
	}
	pass, err := "", fmt.Errorf("one or more peers failed")
	if !failed {
		pass, err = daemon.Verdict(cl, seed, mode)
	}
	if report || err != nil {
		fmt.Print(daemon.FormatCluster(cl))
	}
	if err != nil {
		return err
	}
	fmt.Println(pass)
	return nil
}

// driveGateway runs the launcher's half of a gateway-mode run: an echo
// server as the "real destination", a SOCKS dial through whichever
// peer registered an ingress, and a hash-verified bidirectional
// transfer of total bytes.
func driveGateway(client *directory.Client, total int64) error {
	socks, err := waitSocks(client, 30*time.Second)
	if err != nil {
		return err
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
				if cw, ok := c.(*net.TCPConn); ok {
					cw.CloseWrite()
				}
			}(c)
		}
	}()
	fmt.Printf("cluster: SOCKS ingress at %s, echoing %d bytes through the mesh...\n", socks, total)

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
	rnd := rand.New(rand.NewSource(42))
	buf := make([]byte, 256<<10)
	for left := total; left > 0; {
		n := int64(len(buf))
		if left < n {
			n = left
		}
		rnd.Read(buf[:n])
		h.Write(buf[:n])
		if _, err := conn.Write(buf[:n]); err != nil {
			return fmt.Errorf("gateway write: %w", err)
		}
		left -= n
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
	fmt.Printf("cluster: transfer OK — %d bytes each way in %v (%.1f MB/s round trip), hashes match\n",
		total, el.Round(time.Millisecond), float64(2*total)/el.Seconds()/1e6)
	return nil
}

// waitSocks polls registrations until a peer advertises its SOCKS
// ingress address.
func waitSocks(client *directory.Client, deadline time.Duration) (string, error) {
	end := time.Now().Add(deadline)
	for {
		peers, err := client.Peers()
		if err == nil {
			for _, p := range peers {
				if p.Socks != "" {
					return p.Socks, nil
				}
			}
		}
		if time.Now().After(end) {
			if err == nil {
				err = fmt.Errorf("no peer registered a SOCKS ingress")
			}
			return "", err
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// pickBlipLink chooses the cross-partition link the failover smoke
// kills. Wave-1 flows (odd scenario indexes) run after the link dies,
// so every one of them crossing it must do so at a DAG hop — a linear
// hop into a dead link is a lost transaction — and at least one must
// actually cross, or the smoke proves nothing. Routes are computed
// locally with the same directory code the dir process serves, so the
// walk sees exactly the segment lists the peers will inject.
func pickBlipLink(sc *check.Scenario, n int) (int, error) {
	net := check.BuildNetsim(sc)
	routes, err := check.FlowRoutesAlt(net, sc, daemon.FailoverAlternates)
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
		return -1, fmt.Errorf("failover smoke: no cross-link is crossed only at DAG hops by wave-1 flows (try another -seed)")
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

// autoSeed picks the first seed whose scenario gives every peer at
// least one router and actually crosses the partition, so the run
// exercises the UDP tunnels rather than degenerating to one process
// doing all the work. In failover mode the scenario must additionally
// admit a blippable cross-link (pickBlipLink's conditions).
func autoSeed(n int, failover bool) (int64, error) {
	for seed := int64(1); seed < 1000; seed++ {
		sc := check.Generate(seed)
		if sc.NRouters < n || len(check.CrossLinks(sc, n)) == 0 {
			continue
		}
		if failover {
			if _, err := pickBlipLink(sc, n); err != nil {
				continue
			}
		}
		return seed, nil
	}
	return 0, fmt.Errorf("no seed under 1000 yields a %d-peer scenario (failover=%v)", n, failover)
}

// readDirURL scans the dir process's stdout for its
// SIRPENT_DIR_URL=... line (the port is dynamically bound), then keeps
// draining the pipe in the background.
func readDirURL(r interface{ Read([]byte) (int, error) }) (string, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if url, ok := strings.CutPrefix(line, "SIRPENT_DIR_URL="); ok {
			go func() {
				for sc.Scan() {
					fmt.Printf("dir | %s\n", sc.Text())
				}
			}()
			return url, nil
		}
		fmt.Printf("dir | %s\n", line)
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("reading dir output: %w", err)
	}
	return "", fmt.Errorf("dir exited without printing SIRPENT_DIR_URL")
}

func killAll(cmds []*exec.Cmd) {
	for _, c := range cmds {
		if c != nil && c.Process != nil {
			c.Process.Kill()
		}
	}
}

// prefixWriter returns a writer that prefixes each line with the peer
// name, keeping interleaved child output attributable.
func prefixWriter(name string) *lineWriter {
	return &lineWriter{prefix: name + " | "}
}

type lineWriter struct {
	prefix string
	buf    []byte
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := strings.IndexByte(string(w.buf), '\n')
		if i < 0 {
			break
		}
		fmt.Printf("%s%s\n", w.prefix, w.buf[:i])
		w.buf = w.buf[i+1:]
	}
	return len(p), nil
}
