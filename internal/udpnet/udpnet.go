// Package udpnet bridges livenet ports onto real UDP sockets, so
// separate OS processes — each running its own livenet substrate —
// form one Sirpent internetwork. It is the process-boundary analogue
// of a livenet Link: a Tunnel carries the encoded VIPER bytes of one
// logical link inside UDP datagrams (the Sirpent-over-IP story of
// §2.3: the entire foreign transport is one source-route hop). Its
// fault handles — down, loss ratio, bounded depth — are those of the
// in-process link in front of it, so conformance workloads run over
// sockets with the exact failure vocabulary they use in-process.
//
// Topology-wise a Tunnel is a gateway Host wired to the bridged
// router port: frames the router transmits toward the gateway are
// tapped pre-decode (Host.SetRawTap), framed, and written to the
// peer's socket; datagrams arriving from the peer are unframed and
// re-injected with Host.SendRawTraced. The router on each side sees an
// ordinary arrival on an ordinary port, so §6.2 trailer surgery,
// return routes, token charges, and ledger byte counts are identical
// to a direct in-process link. The cross-process parity run
// (daemon.CompareWithSingleProcess) pins this against the
// single-process run of the same seed: every flow's delivering host,
// return-route fingerprint and reply host (check.Diff), and every
// account's packets and bytes (check.DiffLedgers).
//
// Encapsulation framing (all integers big-endian):
//
//	0      4       5      6        8
//	+------+-------+------+--------+----------------------+
//	| SIRP | vers  | type | linkID | encoded VIPER packet |
//	+------+-------+------+--------+----------------------+
//
// linkID names the logical link, not the peer: two processes may run
// parallel tunnels between the same socket pair, demuxed by linkID
// alone. Datagrams failing the header check are counted and dropped,
// never delivered — and, when the bridge has a flight recorder, each
// such anomaly (decode failure, unknown linkID, send error) is
// recorded with a stable ledger.Kind instead of vanishing into a bare
// counter.
//
// Frames whose livenet record carries a cross-process trace context
// (trace.Context, sampled by the peer's ClusterTracer) are framed as
// TypeTraced instead of TypeData: the header is followed by the
// 17-byte context plus the sender's wall-clock send stamp, then the
// VIPER bytes. The receiving tunnel records a "wire:<linkID>" span
// (send stamp → arrival: the socket time) and re-injects with the
// context so the trace continues in the next process. Untraced traffic
// is framed exactly as before — the traced path costs nothing when
// tracing is off.
//
// The socket moves datagrams a batch at a time on Linux. A tunnel
// sends each batch its gateway host drains from the inner ring, up to
// 64 frames, on that host's goroutine: it frames them back to back into
// one buffer and sends each run of equal-size datagrams (the last may
// be shorter) as one UDP_SEGMENT send, which the kernel segments; if
// the kernel refuses one, the run goes out datagram by datagram and the
// bridge stops trying. The bridge's read loop turns UDP_GRO on after
// its first 64 datagrams and splits each coalesced read at the segment
// size the kernel reports. Stats counts datagrams as before, plus the send
// calls that carried them (Sends). Elsewhere every datagram is one
// send and one read.
package udpnet

import (
	"encoding/binary"
	"fmt"
	"maps"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/trace"
)

// Framing constants.
const (
	Version = 1

	// TypeData carries one encoded VIPER packet.
	TypeData = 0x01

	// TypeTraced carries one encoded VIPER packet prefixed by its
	// trace context and the sender's send stamp (tracedPrefixLen
	// bytes).
	TypeTraced = 0x02

	// HeaderLen is the encapsulation header size in bytes.
	HeaderLen = 8

	// tracedPrefixLen is the trace prefix of a TypeTraced payload:
	// the wire-form trace.Context followed by the sender's Unix-ns
	// send stamp.
	tracedPrefixLen = trace.ContextWireLen + 8

	// MaxDatagram bounds a received datagram; UDP itself cannot carry
	// more.
	MaxDatagram = 64 * 1024
)

var magic = [4]byte{'S', 'I', 'R', 'P'}

// DefaultTunnelDepth is the depth, in frames, of a Tunnel created
// without WithDepth: the ring of the in-process link in front of it,
// its one queue — the socket-side analogue of livenet.DefaultLinkDepth.
const DefaultTunnelDepth = 64

// PeerLossThreshold is the number of consecutive socket write failures
// after which the tunnel declares its peer lost and marks the inner
// in-process link down — so the bridged router's port reads as dead
// and DAG-routed traffic fails over instead of draining into a black
// hole. One successful write clears the state.
const PeerLossThreshold = 3

// Stats is a point-in-time snapshot of one tunnel's counters.
type Stats struct {
	Encapsulated uint64 // frames framed and handed to the socket
	Sends        uint64 // socket send calls that carried them: Encapsulated/Sends is the mean batch
	Decapsulated uint64 // datagrams unframed and injected into livenet
	DecodeErrors uint64 // datagrams for this link with a bad type or empty payload
	SendErrors   uint64 // socket write failures and injections into a stopped network
	Dropped      uint64 // the inner link's fault-injection discards, and frames tapped after Bridge.Close
	TracedSent   uint64 // of Encapsulated: frames carrying a trace context
	TracedRecv   uint64 // of Decapsulated: frames whose context resumed a trace (one "wire" span each)
}

// Bridge owns one UDP socket and demuxes inbound datagrams to the
// tunnels attached to it. One Bridge per process is the intended
// shape — every tunnel the process terminates shares the socket, and
// peers address the process by its single UDP address.
type Bridge struct {
	conn   *net.UDPConn
	node   string                 // name recorded on flight events, default "udpnet"
	flight *ledger.FlightRecorder // anomaly sink, nil when unset (Record is nil-safe)
	spans  *trace.Spans           // wire-span sink, nil when unset (Record is nil-safe)

	// tunnels maps linkID to tunnel. Attach publishes it copy-on-write
	// under mu, so the read loop finds a datagram's tunnel with one
	// atomic load and no lock.
	mu      sync.Mutex
	tunnels atomic.Pointer[map[uint16]*Tunnel]

	decodeErrors atomic.Uint64 // header-level garbage: bad magic/version/length, unknown link

	gso      atomic.Bool   // writers send runs as one UDP_SEGMENT send; cleared when the kernel refuses one
	gro      atomic.Bool   // UDP_GRO is on: reads may carry several datagrams
	reads    int           // datagrams read before UDP_GRO, read loop only
	groReads atomic.Uint64 // reads that carried more than one datagram

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// BridgeOption configures one Listen call.
type BridgeOption func(*Bridge)

// WithFlightRecorder routes tunnel-level anomalies — frame decode
// failures, unknown linkIDs, socket send errors — into fr as events
// with stable kinds, instead of leaving them as bare counters.
func WithFlightRecorder(fr *ledger.FlightRecorder) BridgeOption {
	return func(b *Bridge) { b.flight = fr }
}

// WithTelemetry names this bridge's process (for flight events) and
// routes per-crossing "wire:<linkID>" spans of traced frames into sp.
func WithTelemetry(node string, sp *trace.Spans) BridgeOption {
	return func(b *Bridge) {
		if node != "" {
			b.node = node
		}
		b.spans = sp
	}
}

// Listen opens the bridge socket. addr is a UDP listen address such
// as "127.0.0.1:0"; the chosen port is available from Addr.
func Listen(addr string, opts ...BridgeOption) (*Bridge, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("udpnet: listen %q: %w", addr, err)
	}
	b := newBridge(conn)
	for _, o := range opts {
		o(b)
	}
	b.wg.Add(1)
	go b.readLoop()
	return b, nil
}

// newBridge wraps conn in a bridge whose read loop is not yet running.
func newBridge(conn *net.UDPConn) *Bridge {
	b := &Bridge{
		conn:   conn,
		node:   "udpnet",
		closed: make(chan struct{}),
	}
	b.tunnels.Store(&map[uint16]*Tunnel{})
	b.gso.Store(offload)
	return b
}

// Addr returns the socket's bound address.
func (b *Bridge) Addr() *net.UDPAddr { return b.conn.LocalAddr().(*net.UDPAddr) }

// DecodeErrors counts datagrams discarded before demux: short, wrong
// magic, wrong version, or naming a link no tunnel terminates.
func (b *Bridge) DecodeErrors() uint64 { return b.decodeErrors.Load() }

// Close tears the bridge down: the socket closes, the read loop exits,
// and attached gateways drop what their routers still send them
// (Dropped). Safe to call more than once.
func (b *Bridge) Close() error {
	b.closeOnce.Do(func() {
		close(b.closed)
		b.conn.Close()
	})
	b.wg.Wait()
	return nil
}

// readLoop is the demux pump: one goroutine per bridge reads the
// socket and hands each datagram's payload to the owning tunnel.
func (b *Bridge) readLoop() {
	defer b.wg.Done()
	buf := make([]byte, MaxDatagram)
	oob := make([]byte, groOOBLen)
	for b.read(buf, oob) {
	}
}

// read takes one read off the socket into buf and demuxes every
// datagram in it, and reports false once the bridge is closed. A read
// the kernel coalesced (UDP_GRO) is split at the segment size its
// control message carries; a read without one is one datagram. After
// the bridge's first groAfter datagrams, read turns UDP_GRO on.
func (b *Bridge) read(buf, oob []byte) bool {
	n, oobn, flags, _, err := b.conn.ReadMsgUDPAddrPort(buf, oob)
	if err != nil {
		select {
		case <-b.closed:
			return false
		default:
		}
		// Transient socket errors (e.g. ICMP port unreachable
		// surfacing on connected reads) must not kill the pump.
		return true
	}
	if flags&msgTrunc != 0 {
		b.reject(&b.decodeErrors, ledger.KindDecodeError, fmt.Sprintf("truncated read (%d bytes)", n))
		return true
	}
	seg := groSegment(oob[:oobn])
	if seg > 0 && seg < n {
		b.groReads.Add(1)
	}
	for rd := buf[:n]; ; {
		var dg []byte
		dg, rd = cutSegment(rd, seg)
		b.receive(dg)
		if len(rd) == 0 {
			break
		}
	}
	if !b.gro.Load() {
		if b.reads++; b.reads == groAfter {
			b.gro.Store(enableGRO(b.conn) == nil)
		}
	}
	return true
}

// receive demuxes one datagram. dg aliases the read buffer —
// Tunnel.ingress must copy before returning, which Host.SendRawTraced's
// pooled copy already does. A datagram parseFrame rejects before its
// link is known, or whose link no tunnel terminates, is counted at the
// bridge; one rejected after its link is known is counted at that
// link's tunnel.
func (b *Bridge) receive(dg []byte) {
	f, bad := parseFrame(dg)
	if bad != nil && !bad.atLink {
		b.reject(&b.decodeErrors, ledger.KindDecodeError, bad.reason)
		return
	}
	t := (*b.tunnels.Load())[f.link]
	switch {
	case t == nil:
		b.reject(&b.decodeErrors, ledger.KindUnknownLink, fmt.Sprintf("link %d not attached", f.link))
	case bad != nil:
		b.reject(&t.decodeErrors, ledger.KindDecodeError, bad.reason)
	default:
		t.ingress(f)
	}
}

// reject counts one discarded datagram on n and records why in the
// flight recorder.
func (b *Bridge) reject(n *atomic.Uint64, kind ledger.Kind, reason string) {
	n.Add(1)
	b.flight.Record(ledger.Event{At: time.Now().UnixNano(), Node: b.node, Kind: kind, Reason: reason})
}

// frame is one received datagram, parsed. payload aliases the datagram.
type frame struct {
	link    uint16
	ctx     trace.Context // the zero Context unless TypeTraced
	sent    int64         // the sender's Unix-ns send stamp, TypeTraced only
	payload []byte        // the encoded VIPER packet
}

// badFrame is why parseFrame rejected a datagram: the flight-recorder
// reason, and whether the header was sound enough to name the link
// (atLink), so that the rejection is counted at that link's tunnel.
type badFrame struct {
	reason string
	atLink bool
}

// parseFrame checks one datagram against the encapsulation framing —
// magic, version, length, link ID, type and, for TypeTraced, the trace
// prefix — and splits it into a frame. It reads nothing but dg and
// writes nothing; the frame's payload aliases dg. On a rejection with
// bad.atLink set, f.link is the link the header named.
func parseFrame(dg []byte) (f frame, bad *badFrame) {
	if len(dg) < HeaderLen || [4]byte(dg[0:4]) != magic || dg[4] != Version {
		return frame{}, &badFrame{reason: fmt.Sprintf("bad frame header (%d bytes)", len(dg))}
	}
	f.link = binary.BigEndian.Uint16(dg[6:8])
	f.payload = dg[HeaderLen:]
	switch dg[5] {
	case TypeData:
	case TypeTraced:
		var ok bool
		if f.ctx, ok = trace.DecodeContext(f.payload); !ok || len(f.payload) < tracedPrefixLen {
			return f, &badFrame{reason: fmt.Sprintf("link %d: short trace prefix (%d bytes)", f.link, len(f.payload)), atLink: true}
		}
		f.sent = int64(binary.BigEndian.Uint64(f.payload[trace.ContextWireLen:tracedPrefixLen]))
		f.payload = f.payload[tracedPrefixLen:]
	default:
		return f, &badFrame{reason: fmt.Sprintf("link %d: unknown frame type 0x%02x", f.link, dg[5]), atLink: true}
	}
	if len(f.payload) == 0 {
		return f, &badFrame{reason: fmt.Sprintf("link %d: empty payload", f.link), atLink: true}
	}
	return f, nil
}

// tunnelConfig collects Attach options.
type tunnelConfig struct {
	depth  int
	remote *net.UDPAddr
}

// TunnelOption configures one Attach call.
type TunnelOption func(*tunnelConfig)

// WithDepth sets the tunnel's depth in frames: the ring of the
// in-process link in front of it, where a frame waits for the gateway
// host to send it. A full ring drops at the bridged router, counted
// there as DropQueueFull. Non-positive values are ignored.
func WithDepth(n int) TunnelOption {
	return func(c *tunnelConfig) {
		if n > 0 {
			c.depth = n
		}
	}
}

// WithRemote sets the peer address at attach time; otherwise set it
// later with SetRemote once directory registration has resolved it.
func WithRemote(addr *net.UDPAddr) TunnelOption {
	return func(c *tunnelConfig) { c.remote = addr }
}

// Tunnel carries one logical link over the bridge's socket. Its fault
// handles are its inner livenet.Link's, the in-process link between
// the bridged port and the tunnel: SetDown cuts both directions, a loss
// ratio discards each frame in either direction independently with
// livenet's lottery, and Dropped attributes every discard for
// conservation checks.
type Tunnel struct {
	bridge *Bridge
	linkID uint16
	gw     *livenet.Host
	gwPort uint8
	inner  *livenet.Link // in-process link to the bridged router port

	wireStage string // span stage name, "wire:<linkID>"

	remote atomic.Pointer[net.UDPAddr]

	down       atomic.Bool   // explicit SetDown state, combined with peerLost onto inner
	peerLost   atomic.Bool   // set by consecutive-write-failure detection
	consecErrs atomic.Uint32 // socket write failures since the last success

	// egress's state, used only on the gateway host's goroutine.
	buf []byte          // a batch's datagrams, back to back
	dgs [][]byte        // windows of buf, one per datagram
	oob [gsoOOBLen]byte // the UDP_SEGMENT control message (sendRun)

	encapsulated atomic.Uint64
	sends        atomic.Uint64
	decapsulated atomic.Uint64
	decodeErrors atomic.Uint64
	sendErrors   atomic.Uint64
	dropped      atomic.Uint64 // frames tapped after Bridge.Close
	tracedSent   atomic.Uint64
	tracedRecv   atomic.Uint64
}

// Attach bridges port `port` of node `at` (a livenet Router or Host)
// onto the UDP socket as logical link linkID. It creates the gateway
// host and the in-process link to it; the returned Tunnel is live
// immediately, though frames sent before a remote address is known
// count as send errors. linkID must be unique on this bridge.
func (b *Bridge) Attach(netw *livenet.Network, at livenet.Attachable, port uint8, linkID uint16, opts ...TunnelOption) (*Tunnel, error) {
	cfg := tunnelConfig{depth: DefaultTunnelDepth}
	for _, o := range opts {
		o(&cfg)
	}
	t := newTunnel(b, linkID, cfg.remote)
	if _, dup := (*b.tunnels.Load())[linkID]; dup {
		return nil, fmt.Errorf("udpnet: link %d already attached", linkID)
	}

	// Wire the gateway completely before publishing the tunnel: the
	// moment it is in b.tunnels, the read loop may hand it a datagram.
	t.gw = netw.NewHost(fmt.Sprintf("udpgw-%d", linkID))
	// The inner ring is the tunnel's one queue: the gateway host sends
	// each batch it drains from it before it drains the next.
	t.inner = netw.Connect(at, port, t.gw, t.gwPort, livenet.WithDepth(cfg.depth))
	t.gw.SetRawTap(t.egress)

	b.mu.Lock()
	defer b.mu.Unlock()
	old := *b.tunnels.Load()
	if _, dup := old[linkID]; dup {
		// Lost a concurrent attach race for the same ID (caller bug; the
		// gateway host above is orphaned but harmless).
		return nil, fmt.Errorf("udpnet: link %d already attached", linkID)
	}
	table := maps.Clone(old)
	table[linkID] = t
	b.tunnels.Store(&table)
	return t, nil
}

// newTunnel builds link linkID's tunnel on b, sending to remote (nil
// until known), with no gateway yet.
func newTunnel(b *Bridge, linkID uint16, remote *net.UDPAddr) *Tunnel {
	t := &Tunnel{
		bridge:    b,
		linkID:    linkID,
		gwPort:    1,
		wireStage: fmt.Sprintf("wire:%d", linkID),
	}
	if remote != nil {
		t.remote.Store(remote)
	}
	return t
}

// SetRemote points the tunnel at its peer's socket address.
func (t *Tunnel) SetRemote(addr *net.UDPAddr) { t.remote.Store(addr) }

// Remote returns the current peer address, nil before discovery.
func (t *Tunnel) Remote() *net.UDPAddr { return t.remote.Load() }

// LinkID returns the tunnel's logical link identifier.
func (t *Tunnel) LinkID() uint16 { return t.linkID }

// SetDown fails (true) or restores (false) both directions. The state
// propagates to the inner in-process link, so the bridged router's
// port-up view — and with it DAG failover — tracks the tunnel.
// Restoring does not override an active peer-loss declaration.
func (t *Tunnel) SetDown(down bool) {
	t.down.Store(down)
	t.syncInner()
}

// IsDown reports whether the tunnel is failed, either explicitly or by
// peer-loss detection.
func (t *Tunnel) IsDown() bool { return t.down.Load() || t.peerLost.Load() }

// PeerLost reports whether consecutive socket write failures have
// declared the peer unreachable.
func (t *Tunnel) PeerLost() bool { return t.peerLost.Load() }

// syncInner mirrors the tunnel's effective health onto the inner link.
func (t *Tunnel) syncInner() {
	if t.inner != nil {
		t.inner.SetDown(t.down.Load() || t.peerLost.Load())
	}
}

// noteSendError advances the peer-loss detector after one socket write
// failure; at PeerLossThreshold consecutive failures the peer is
// declared lost, the inner link marked down, and the transition
// flight-recorded.
func (t *Tunnel) noteSendError() {
	if t.consecErrs.Add(1) < PeerLossThreshold {
		return
	}
	if t.peerLost.CompareAndSwap(false, true) {
		t.syncInner()
		t.bridge.flight.Record(ledger.Event{
			At: time.Now().UnixNano(), Node: t.bridge.node,
			Kind: ledger.KindLinkFlap, Reason: fmt.Sprintf("link %d: peer lost after %d consecutive send errors", t.linkID, PeerLossThreshold),
		})
	}
}

// noteSendOK resets the detector after a successful write; a peer
// previously declared lost is restored (unless explicitly down).
func (t *Tunnel) noteSendOK() {
	t.consecErrs.Store(0)
	if t.peerLost.CompareAndSwap(true, false) {
		t.syncInner()
		t.bridge.flight.Record(ledger.Event{
			At: time.Now().UnixNano(), Node: t.bridge.node,
			Kind: ledger.KindLinkFlap, Reason: fmt.Sprintf("link %d: peer recovered", t.linkID),
		})
	}
}

// SetLossRatio makes the inner link discard each frame, in either
// direction, with probability p (0 disables).
func (t *Tunnel) SetLossRatio(p float64) { t.inner.SetLossRatio(p) }

// Dropped returns the number of frames the inner link discarded by
// fault injection, in either direction, plus those tapped after
// Bridge.Close.
func (t *Tunnel) Dropped() uint64 {
	n := t.dropped.Load()
	if t.inner != nil {
		n += t.inner.Dropped()
	}
	return n
}

// Stats returns a snapshot of the tunnel's counters. Dropped includes
// the inner link's discards, as Dropped() does.
func (t *Tunnel) Stats() Stats {
	return Stats{
		Encapsulated: t.encapsulated.Load(),
		Sends:        t.sends.Load(),
		Decapsulated: t.decapsulated.Load(),
		DecodeErrors: t.decodeErrors.Load(),
		SendErrors:   t.sendErrors.Load(),
		Dropped:      t.Dropped(),
		TracedSent:   t.tracedSent.Load(),
		TracedRecv:   t.tracedRecv.Load(),
	}
}

// egress is the gateway host's raw tap: each batch the host drains
// from the bridged router port arrives here whole, in arrival order, its
// bytes valid only for the call, and is on the socket when egress
// returns. The inner link has already drawn its fault lottery for
// each frame; a batch that arrives after Bridge.Close is dropped whole.
//
// The frames are framed back to back into the tunnel's one buffer,
// and each run of them (runEnd) goes out as one GSO send of its window
// while the bridge has GSO on; a lone datagram goes out by itself. A GSO
// send that fails is resent datagram by datagram, so send errors, the
// peer-loss detector and flight events are exactly those of unbatched
// sends; if that resend succeeds, the kernel refused GSO itself, and the
// bridge stops trying it.
//
// A frame whose in-process record carried a trace context crosses as
// TypeTraced with one less hop budget and the send stamp taken here, so
// the receiver's "wire:<linkID>" span covers the socket time. The local
// record has already been closed by the host's tap delivery; losing the
// datagram afterwards loses only the wire copy of the context, never an
// open record.
func (t *Tunnel) egress(batch []livenet.RawFrame) {
	select {
	case <-t.bridge.closed:
		t.dropped.Add(uint64(len(batch)))
		return
	default:
	}
	n := 0
	for i := range batch {
		n += HeaderLen + tracedPrefixLen + len(batch[i].Pkt) // at least its framed size
	}
	if cap(t.buf) < n {
		t.buf = make([]byte, 0, n)
	}
	// buf never outgrows its array below, so every window stays in it.
	buf, dgs := t.buf[:0], t.dgs[:0]
	for i := range batch {
		start := len(buf)
		buf = appendFrame(buf, t.linkID, batch[i])
		dgs = append(dgs, buf[start:])
	}
	t.dgs = dgs
	for i, off := 0, 0; i < len(dgs); {
		run := dgs[i:runEnd(dgs, i)]
		i += len(run)
		start := off
		for _, dg := range run {
			off += len(dg)
		}
		if len(run) == 1 || !t.bridge.gso.Load() {
			t.sendEach(run)
			continue
		}
		to, ok := t.dest()
		if ok && t.sendRun(buf[start:off], len(run[0]), to) == nil {
			t.sent(run)
			continue
		}
		if t.sendEach(run) {
			t.bridge.gso.Store(false)
		}
	}
}

// appendFrame appends f to dst framed as one datagram of link:
// TypeTraced, with the context's next hop and the send stamp, when its
// context can hop, else TypeData.
func appendFrame(dst []byte, link uint16, f livenet.RawFrame) []byte {
	typ := byte(TypeData)
	if f.Ctx.CanHop() {
		typ = TypeTraced
	}
	dst = append(dst, magic[0], magic[1], magic[2], magic[3], Version, typ, byte(link>>8), byte(link))
	if typ == TypeTraced {
		var prefix [tracedPrefixLen]byte
		f.Ctx.Next().Encode(prefix[:])
		binary.BigEndian.PutUint64(prefix[trace.ContextWireLen:], uint64(time.Now().UnixNano()))
		dst = append(dst, prefix[:]...)
	}
	return append(dst, f.Pkt...)
}

// dest returns the peer's socket address, false before it is known. A
// resolved address is often the 16-byte IPv4-mapped form, which an IPv4
// socket refuses; unmapped, it is the plain IPv4 address.
func (t *Tunnel) dest() (netip.AddrPort, bool) {
	remote := t.remote.Load()
	if remote == nil {
		return netip.AddrPort{}, false
	}
	return netip.AddrPortFrom(remote.AddrPort().Addr().Unmap(), uint16(remote.Port)), true
}

// sendEach puts each datagram of dgs on the socket by itself and
// reports whether every send succeeded.
func (t *Tunnel) sendEach(dgs [][]byte) bool {
	ok := true
	for _, dg := range dgs {
		ok = t.send(dg) && ok
	}
	return ok
}

// send puts one datagram on the socket, counting and flight-recording a
// failure, and reports whether it went out.
func (t *Tunnel) send(dg []byte) bool {
	to, ok := t.dest()
	if !ok {
		t.sendErrors.Add(1)
		t.bridge.flight.Record(ledger.Event{
			At: time.Now().UnixNano(), Node: t.bridge.node,
			Kind: ledger.KindSendError, Reason: fmt.Sprintf("link %d: no remote address", t.linkID),
		})
		return false
	}
	if _, err := t.bridge.conn.WriteToUDPAddrPort(dg, to); err != nil {
		t.sendErrors.Add(1)
		t.noteSendError()
		t.bridge.flight.Record(ledger.Event{
			At: time.Now().UnixNano(), Node: t.bridge.node,
			Kind: ledger.KindSendError, Reason: fmt.Sprintf("link %d: %v", t.linkID, err),
		})
		return false
	}
	t.sent([][]byte{dg})
	return true
}

// sent counts one successful socket send and the datagrams it carried,
// and clears the peer-loss detector.
func (t *Tunnel) sent(dgs [][]byte) {
	t.noteSendOK()
	t.sends.Add(1)
	t.encapsulated.Add(uint64(len(dgs)))
	var traced uint64
	for _, dg := range dgs {
		if dg[5] == TypeTraced {
			traced++
		}
	}
	if traced > 0 {
		t.tracedSent.Add(traced)
	}
}

// ingress delivers one parsed frame into the livenet substrate. Runs
// on the bridge's read loop; the payload aliases the read buffer and
// is copied by SendRawTraced before this returns. A traced frame's
// crossing is recorded as a "wire:<linkID>" span and its context rides
// into livenet so the network's tracer (if it resumes) follows the
// packet onward.
func (t *Tunnel) ingress(f frame) {
	arrived := int64(0)
	if f.ctx.Valid() {
		arrived = time.Now().UnixNano()
	}
	if err := t.gw.SendRawTraced(t.gwPort, f.payload, f.ctx); err != nil {
		t.sendErrors.Add(1)
		return
	}
	t.decapsulated.Add(1)
	if f.ctx.Valid() {
		// Counted and recorded only for frames that actually entered the
		// substrate, so wire-span counts reconcile exactly with
		// TracedRecv across the cluster.
		t.tracedRecv.Add(1)
		t.bridge.spans.Record(trace.Span{
			Trace: f.ctx.ID, Stage: t.wireStage, Node: t.bridge.node,
			Start: f.sent, End: arrived,
		})
	}
}
