package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Gateway workloads drive the standalone SOCKS5 gateway (4-router,
// token-billed chain, default settings) from one client over loopback
// TCP, closed loop: the client issues its next operation when the
// previous one has completed.

type gwKind int

const (
	gwUpload gwKind = iota // one stream, bulk upload into a hashing sink
	gwRR                   // one persistent stream, 256-byte request → echo
	gwChurn                // connect → 1 KiB → echo → close, paced
	gwDuplex               // diagnostic: bulk upload into an echo, both directions at once
	gwBypass               // diagnostic: gwUpload's client and sink over plain loopback TCP
)

const (
	uploadChunk = 256 << 10 // one client Write under load
	firstChunk  = 1 << 10   // the single write that ends set-up
	mib         = 1 << 20
	rrBytes     = 256
	churnBytes  = 1 << 10
	// churnGap paces gw_churn to ≤ 250 connections/s, timed from the
	// actual start of each operation: unpaced, ~36k connections × 2
	// sockets in 20 s run loopback out of ephemeral ports.
	churnGap = 4 * time.Millisecond
	// rrTraceEvery keeps gw_rr's span file to a few MB.
	rrTraceEvery = 16
)

// tcpServer is a loopback listener running serve on each connection.
type tcpServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func listen(serve func(net.Conn)) (*tcpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &tcpServer{ln: ln, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			s.conns[c] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				serve(c)
				c.Close()
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
			}()
		}
	}()
	return s, nil
}

func (s *tcpServer) addr() string { return s.ln.Addr().String() }

// close stops accepting, closes whatever is still open, and waits for
// every serving goroutine.
func (s *tcpServer) close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func echo(c net.Conn) { io.Copy(c, c) }

type gwWorkload struct {
	kind gwKind
	seed int64

	gw   *gwSUT
	srv  *tcpServer
	conn net.Conn // the persistent stream (upload, rr, duplex)

	pattern []byte
	stopped atomic.Bool
	client  sync.WaitGroup
	lat     atomic.Pointer[hist]
	tr      atomic.Pointer[tracer]

	ops, bytes, attempted, failed atomic.Uint64
	seq                           uint64 // owned by the client goroutine

	// upload: what the client sent and what the sink saw.
	first    chan struct{} // closed when the first chunk has arrived
	sent     atomic.Uint64
	sentSum  hash.Hash // nil when the far end is an echo
	received atomic.Uint64
	sinkSum  chan [sha256.Size]byte
	// duplex: bytes read back by the client.
	echoed   atomic.Uint64
	readBack sync.WaitGroup

	mu         sync.Mutex
	problems   []string
	unbalanced int // ledger clauses Reconcile found violated at stop
}

func (w *gwWorkload) problem(format string, a ...any) {
	w.mu.Lock()
	w.problems = append(w.problems, fmt.Sprintf(format, a...))
	w.mu.Unlock()
}

func (w *gwWorkload) setup() (err error) {
	w.lat.Store(&hist{})
	w.first = make(chan struct{})
	w.pattern = make([]byte, mib+uploadChunk)
	rand.New(rand.NewSource(w.seed)).Read(w.pattern)
	serve := echo
	if w.kind == gwUpload || w.kind == gwBypass {
		w.sinkSum = make(chan [sha256.Size]byte, 1)
		w.sentSum = sha256.New()
		serve = w.sink
	}
	if w.srv, err = listen(serve); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			w.teardown()
		}
	}()
	if w.kind != gwBypass {
		if w.gw, err = startGateway(); err != nil {
			return err
		}
	}
	// First verified operation: set-up ends here.
	switch w.kind {
	case gwChurn:
		return w.churnOp()
	case gwRR:
		if w.conn, err = w.dial(); err != nil {
			return err
		}
		return w.rrOp()
	default:
		if w.conn, err = w.dial(); err != nil {
			return err
		}
		if w.kind == gwDuplex {
			w.readBack.Add(1)
			go w.readEcho()
		}
		if err := w.upload(firstChunk); err != nil {
			return err
		}
		select {
		case <-w.first:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("first chunk not delivered")
		}
	}
}

// dial opens a stream to the workload's server: through the gateway, or
// straight over loopback for the bypass ceiling.
func (w *gwWorkload) dial() (net.Conn, error) {
	if w.gw == nil {
		return net.Dial("tcp", w.srv.addr())
	}
	return w.gw.dial(w.srv.addr())
}

// sink hashes and discards, and times the arrival of each successive
// MiB of the stream: the upload's operation is "one MiB delivered".
func (w *gwWorkload) sink(c net.Conn) {
	h := sha256.New()
	buf := make([]byte, 256<<10)
	var got uint64
	next, last := uint64(mib), nowNs()
	for {
		n, err := c.Read(buf)
		h.Write(buf[:n])
		got += uint64(n)
		w.received.Store(got)
		if got >= firstChunk && got-uint64(n) < firstChunk {
			close(w.first)
		}
		if got >= next {
			// Several boundaries crossed by one read share its interval.
			now, k := nowNs(), int64((got-next)/mib+1)
			for i := int64(0); i < k; i++ {
				w.lat.Load().record((now - last) / k)
				w.tr.Load().add("sink.MiB", next/mib+uint64(i), "", last+i*(now-last)/k, last+(i+1)*(now-last)/k)
			}
			next, last = next+uint64(k)*mib, now
		}
		if err != nil {
			var sum [sha256.Size]byte
			h.Sum(sum[:0])
			w.sinkSum <- sum
			return
		}
	}
}

// readEcho counts what the duplex stream returns.
func (w *gwWorkload) readEcho() {
	defer w.readBack.Done()
	buf := make([]byte, 256<<10)
	for {
		n, err := w.conn.Read(buf)
		if got := w.echoed.Add(uint64(n)); got >= firstChunk && got-uint64(n) < firstChunk {
			close(w.first)
		}
		if err != nil {
			return
		}
	}
}

func (w *gwWorkload) uploadOp() error { return w.upload(uploadChunk) }

// upload writes the next n bytes of the seeded stream.
func (w *gwWorkload) upload(n int) error {
	off := (w.seq * 7919) % mib
	w.seq++
	chunk := w.pattern[off : off+uint64(n)]
	if w.sentSum != nil {
		w.sentSum.Write(chunk)
	}
	t0 := nowNs()
	if _, err := w.conn.Write(chunk); err != nil {
		return err
	}
	w.sent.Add(uint64(n))
	w.tr.Load().add("conn.Write", w.seq, "", t0, nowNs())
	return nil
}

// request fills buf with the next sequence-numbered request.
func (w *gwWorkload) request(buf []byte) {
	w.seq++
	copy(buf, w.pattern[w.seq%4096:])
	binary.LittleEndian.PutUint64(buf, w.seq)
}

// rrOp is one request → echo → verify on the persistent stream.
func (w *gwWorkload) rrOp() error {
	var req, resp [rrBytes]byte
	w.request(req[:])
	w.attempted.Add(1)
	tr := w.tr.Load()
	if w.seq%rrTraceEvery != 0 {
		tr = nil
	}
	t0 := nowNs()
	if _, err := w.conn.Write(req[:]); err != nil {
		return err
	}
	t1 := nowNs()
	if _, err := io.ReadFull(w.conn, resp[:]); err != nil {
		return err
	}
	t2 := nowNs()
	if !bytes.Equal(req[:], resp[:]) {
		w.failed.Add(1)
		return nil
	}
	w.lat.Load().record(t2 - t0)
	w.ops.Add(1)
	w.bytes.Add(rrBytes)
	tr.add("conn.Write", w.seq, rootSpan, t0, t1)
	tr.add("io.ReadFull", w.seq, rootSpan, t1, t2)
	tr.add(rootSpan, w.seq, "", t0, t2)
	return nil
}

// churnOp is one whole connection: dial through the gateway, send
// 1 KiB, read it back, close both directions cleanly.
func (w *gwWorkload) churnOp() error {
	var req, resp [churnBytes]byte
	w.request(req[:])
	w.attempted.Add(1)
	tr := w.tr.Load()
	t0 := nowNs()
	c, err := w.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	t1 := nowNs()
	if _, err := c.Write(req[:]); err != nil {
		return err
	}
	t2 := nowNs()
	if _, err := io.ReadFull(c, resp[:]); err != nil {
		return err
	}
	t3 := nowNs()
	// Clean close: our FIN travels to the echo, its FIN travels back.
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, c); err != nil {
		return err
	}
	t4 := nowNs()
	if !bytes.Equal(req[:], resp[:]) {
		w.failed.Add(1)
		return nil
	}
	w.lat.Load().record(t3 - t0)
	w.ops.Add(1)
	w.bytes.Add(churnBytes)
	tr.add("gateway.DialSocks", w.seq, rootSpan, t0, t1)
	tr.add("conn.Write", w.seq, rootSpan, t1, t2)
	tr.add("io.ReadFull", w.seq, rootSpan, t2, t3)
	tr.add("conn.Close", w.seq, rootSpan, t3, t4)
	tr.add(rootSpan, w.seq, "", t0, t4)
	return nil
}

func (w *gwWorkload) start() {
	w.client.Add(1)
	go func() {
		defer w.client.Done()
		op := w.uploadOp
		switch w.kind {
		case gwRR:
			op = w.rrOp
		case gwChurn:
			op = w.churnOp
		}
		for !w.stopped.Load() {
			began := time.Now()
			if err := op(); err != nil {
				w.failed.Add(1)
				w.problem("operation %d: %v", w.seq, err)
				return
			}
			if w.kind == gwChurn {
				time.Sleep(churnGap - time.Since(began))
			}
		}
	}()
}

func (w *gwWorkload) observe(tr *tracer) {
	w.lat.Store(&hist{})
	w.tr.Store(tr)
}

func (w *gwWorkload) progress() counts {
	c := counts{
		ops:       w.ops.Load(),
		bytes:     w.bytes.Load(),
		attempted: w.attempted.Load(),
		failed:    w.failed.Load(),
	}
	// The streaming kinds count whole MiB: offered by the client,
	// completed at the far end (and verified by hash or count at stop).
	switch w.kind {
	case gwUpload, gwBypass:
		c.bytes = w.received.Load()
		c.ops, c.attempted = c.bytes/mib, w.sent.Load()/mib
	case gwDuplex:
		c.bytes = 2 * w.echoed.Load()
		c.ops, c.attempted = w.echoed.Load()/mib, w.sent.Load()/mib
	}
	if w.gw != nil {
		c.pkts = w.gw.counters().billedPkts / gatewayHops
	}
	return c
}

// stop ends the client, closes its streams cleanly, lets the gateway
// settle, and runs every integrity check.
func (w *gwWorkload) stop() []string {
	w.stopped.Store(true)
	w.client.Wait()
	if w.conn != nil {
		if err := w.conn.(*net.TCPConn).CloseWrite(); err != nil {
			w.problem("close write: %v", err)
		}
		switch w.kind {
		case gwUpload, gwBypass:
			select {
			case sum := <-w.sinkSum:
				var want [sha256.Size]byte
				w.sentSum.Sum(want[:0])
				if got, sent := w.received.Load(), w.sent.Load(); got != sent {
					w.problem("sink received %d bytes, client sent %d", got, sent)
				} else if sum != want {
					w.problem("sink SHA-256 differs from the sender's over %d bytes", got)
				}
			case <-time.After(10 * time.Second):
				w.problem("sink saw no end of stream within 10 s of the client's close")
			}
		case gwDuplex:
			w.readBack.Wait()
			if got, sent := w.echoed.Load(), w.sent.Load(); got != sent {
				w.problem("echo returned %d bytes, client sent %d", got, sent)
			}
		case gwRR:
			if _, err := io.Copy(io.Discard, w.conn); err != nil {
				w.problem("drain after close: %v", err)
			}
		}
		w.conn.Close()
	}
	if w.gw == nil {
		return w.problems
	}
	// A clean close is two FIN groups and their window quiesce; when one
	// of those packets is lost it waits out a retransmission timer, which
	// two equal 50 ms reads would mistake for rest.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if c := w.gw.counters(); c.activeIngress == 0 && c.activeEgress == 0 {
			break
		}
	}
	if !settle(w.gw.counters) {
		w.problem("gateway counters still moving 2 s after the last close")
	}
	t0 := nowNs()
	rec := w.gw.reconcile()
	w.tr.Load().add("Reconcile", 0, "", t0, nowNs())
	w.unbalanced = len(rec)
	for _, p := range rec {
		w.problem("ledger: %s", p)
	}
	c := w.gw.counters()
	if c.activeIngress != 0 || c.activeEgress != 0 {
		w.problem("streams still open after close: ingress %d, egress %d", c.activeIngress, c.activeEgress)
	}
	if n := c.callsFailed + c.openFailures + c.resets + c.socksErrors + c.dialErrors; n != 0 {
		w.problem("gateway reports %d failed calls, %d open failures, %d resets, %d SOCKS errors, %d dial errors",
			c.callsFailed, c.openFailures, c.resets, c.socksErrors, c.dialErrors)
	}
	fmt.Printf("  gateway: streams=%d groups=%d bytes_in=%d retx=%d acks=%d queue_drops=%d billed_pkts=%d resets=%d\n",
		c.streams, c.groupsSent, c.bytesIn, c.retx, c.acksSent, c.queueDrops, c.billedPkts, c.resets)
	return w.problems
}

func (w *gwWorkload) latency() *hist { return w.lat.Load() }

// layer reports the per-layer counters of the whole run. It is called
// after stop and before teardown.
func (w *gwWorkload) layer(m map[string]float64) {
	if w.gw == nil {
		return
	}
	c := w.gw.counters()
	// The relays do not count packets, so the request packets are
	// estimated: each data group's mean size (plus its message header)
	// in MaxPacketData pieces, and one packet for every other call.
	perGroup := math.Ceil((ratio(float64(c.bytesIn), float64(c.groupsSent)) + 32) / 1024)
	dataPkts := float64(c.groupsSent)*perGroup + float64(c.callsStarted-c.groupsSent)
	m["vmtp.retx_ratio"] = ratio(float64(c.retx), dataPkts)
	m["vmtp.acks_per_group"] = ratio(float64(c.acksSent), float64(c.groupsSent))
	m["vmtp.queue_drops"] = float64(c.queueDrops)
	m["vmtp.calls_failed"] = float64(c.callsFailed)
	m["gateway.group_rtt_p50_us"] = float64(c.rttP50us)
	m["gateway.group_rtt_p99_us"] = float64(c.rttP99us)
	m["gateway.bytes_per_group"] = ratio(float64(c.bytesIn), float64(c.groupsSent))
	m["gateway.resets"] = float64(c.resets)
	m["gateway.open_failures"] = float64(c.openFailures)
	m["gateway.active_streams_end"] = float64(c.activeIngress + c.activeEgress)
	m["ledger.collect_ms"] = float64(w.gw.bill()) / 1e6
	// Carried packets: requests, one reply per call, acks, resends; each
	// is billed once per router, so the ratio is 1 when the books agree
	// with the transport's own counters.
	carried := dataPkts + float64(c.callsStarted) + float64(c.acksSent) + float64(c.retx)
	m["ledger.billed_per_delivered"] = ratio(float64(c.billedPkts), gatewayHops*carried)
	m["ledger.reconcile_problems"] = float64(w.unbalanced)
}

func (w *gwWorkload) teardown() {
	if w.conn != nil {
		w.conn.Close()
	}
	if w.gw != nil {
		w.gw.close()
	}
	if w.srv != nil {
		w.srv.close()
	}
}
