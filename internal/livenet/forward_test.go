package livenet

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/viper"
)

// forwardRig is a router with no worker goroutine, driven batch by batch
// through forwardBatch as hopDriver drives it. Its output ports are
// hand-wired sink pipes, deep enough that a test batch never overflows
// them, and every port it wires has a live link.
type forwardRig struct {
	n   *Network
	r   *Router
	out map[uint8]*pipe
}

func newForwardRig(ports ...uint8) *forwardRig {
	return newRigOn(NewNetwork(), "r", ports...)
}

// newRigOn builds a rig router named name on n's worker.
func newRigOn(n *Network, name string, ports ...uint8) *forwardRig {
	rig := &forwardRig{n: n, r: n.newRouter(name), out: make(map[uint8]*pipe)}
	sink := sinkNode()
	for _, port := range ports {
		p := newPipe(4*batchSize, port, &Link{}, sink)
		rig.r.node.addTx(port, p)
		rig.out[port] = p
	}
	return rig
}

// fuse wires port to a second rig router on the same worker, arriving
// on its port 1, and returns that rig. Only this direction is wired, so
// a frame crosses the fused link at most once.
func (rig *forwardRig) fuse(port uint8, peerPorts ...uint8) *forwardRig {
	peer := newRigOn(rig.n, "peer", peerPorts...)
	rig.r.node.addTx(port, newFusedPipe(4*batchSize, 1, &Link{}, peer.r))
	return peer
}

// forward stages each wire image as a pooled frame arriving on port 1
// behind an Ethernet header, traced when tr is non-nil, and forwards
// them all as one batch. What it hands on over fused links waits on the
// worker's work-list.
func (rig *forwardRig) forward(tr trace.Tracer, frames ...[]byte) {
	for _, b := range frames {
		f, buf := newFrame(hopHdrTemplate, len(b)+frameHeadroom(4, len(b)))
		f.pkt, f.pt, f.port = append(buf, b...), trace.Start(tr, nil), 1
		rig.r.sc.in = append(rig.r.sc.in, f)
	}
	rig.r.forwardBatch(rig.r.sc)
}

// drain pops every frame flushed to port, in ring order, hands each to
// fn (when non-nil), and closes and releases it.
func (rig *forwardRig) drain(port uint8, fn func(*frame)) {
	dst := make([]*frame, batchSize)
	for {
		n := rig.out[port].r.PopBatch(dst)
		if n == 0 {
			return
		}
		for _, f := range dst[:n] {
			if fn != nil {
				fn(f)
			}
			if f.pt != nil {
				f.pt.Done()
			}
			f.release()
		}
	}
}

// wireImage seals route and encodes it around payload with one trailer
// segment, as a router sees the packet arrive from its first hop.
func wireImage(tb testing.TB, payload string, route ...viper.Segment) []byte {
	tb.Helper()
	if err := viper.SealRoute(route); err != nil {
		tb.Fatal(err)
	}
	pkt := viper.NewPacket(route, []byte(payload))
	pkt.Trailer = []viper.Segment{{Port: viper.PortLocal}}
	b, err := pkt.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// unicastTo is a frame this router forwards on port, delivered locally
// at the next node.
func unicastTo(tb testing.TB, port uint8, payload string) []byte {
	return wireImage(tb, payload, viper.Segment{Port: port}, viper.Segment{Port: viper.PortLocal})
}

// treeTo is a tree-multicast frame whose one branch leaves on port.
func treeTo(tb testing.TB, port uint8, payload string) []byte {
	tb.Helper()
	tree, err := viper.TreeSegment(0, [][]viper.Segment{{{Port: port, Flags: viper.FlagVNT}, {Port: viper.PortLocal}}})
	if err != nil {
		tb.Fatal(err)
	}
	return wireImage(tb, payload, tree)
}

// dagSeg is a DAG segment on primary whose one alternate is alt.
func dagSeg(tb testing.TB, primary uint8, alt ...viper.Segment) viper.Segment {
	tb.Helper()
	if err := viper.SealRoute(alt); err != nil {
		tb.Fatal(err)
	}
	seg, err := viper.DAGSegment(primary, 0, nil, nil, [][]viper.Segment{alt})
	if err != nil {
		tb.Fatal(err)
	}
	return seg
}

// TestForwardBatchPortOrder pins DESIGN §11's per-port FIFO for frames
// made mid-batch: a tree branch and a failover frame are queued at their
// parent's position, so each port's frames leave in arrival order.
func TestForwardBatchPortOrder(t *testing.T) {
	const p, q, dead = 2, 3, 4 // port 4 is unwired, so it reads down
	rig := newForwardRig(p, q)
	for _, tc := range []struct {
		port  uint8
		batch [][]byte
		want  []string
	}{{
		port: p,
		batch: [][]byte{
			unicastTo(t, p, "first"),
			treeTo(t, p, "branch"),
			unicastTo(t, p, "last"),
		},
		want: []string{"first", "branch", "last"},
	}, {
		port: q,
		batch: [][]byte{
			unicastTo(t, q, "first"),
			wireImage(t, "failover",
				dagSeg(t, dead, viper.Segment{Port: q}, viper.Segment{Port: viper.PortLocal}),
				viper.Segment{Port: viper.PortLocal}),
		},
		want: []string{"first", "failover"},
	}} {
		rig.forward(nil, tc.batch...)
		var got []string
		rig.drain(tc.port, func(f *frame) {
			for _, w := range tc.want {
				if bytes.Contains(f.pkt, []byte(w)) {
					got = append(got, w)
				}
			}
		})
		if !slices.Equal(got, tc.want) {
			t.Fatalf("port %d carried %v, want %v", tc.port, got, tc.want)
		}
	}
}

// endLog is a tracer that keeps the last hop of every finished record.
type endLog struct{ last []trace.Action }

func (l *endLog) Begin([]byte) *trace.PacketTrace { return &trace.PacketTrace{} }
func (l *endLog) Finish(pt *trace.PacketTrace) {
	l.last = append(l.last, pt.Hops[len(pt.Hops)-1].Action)
}

// overCapChain is a failover chain one level deeper than
// dataplane.MaxFailoverDepth: each DAG segment's alternate head is the
// next DAG segment, and the innermost alternate leaves on port 3.
func overCapChain(tb testing.TB) []byte {
	seg := dagSeg(tb, 2, viper.Segment{Port: 3}, viper.Segment{Port: viper.PortLocal})
	for i := 0; i < dataplane.MaxFailoverDepth; i++ {
		seg = dagSeg(tb, 2, seg, viper.Segment{Port: viper.PortLocal})
	}
	return wireImage(tb, "over-cap", seg, viper.Segment{Port: viper.PortLocal})
}

// FuzzForwardBatch drives the router's one forward path with a batch of
// 1–8 raw frames: the input's first byte picks the batch size and the
// rest splits into that many frames. The router wires ports 2 and 5 to
// sinks and port 3 to a peer router fused to it on the same worker, whose
// own ports 2, 3 and 5 are sinks. It demands a token on 5, and sees every
// DAG probe flap its link, so a primary reads down and the alternate it
// probes next reads up — the only way a re-entered DAG frame meets a
// dead primary again, which is what the failover cap exists for.
// Whatever the bytes:
//
//   - every input frame, every branch copy and every frame handed to the
//     peer ends in exactly one forwarded, local or drop count at one of
//     the two routers (a fanout parent ends in its branches, and its
//     trace record closes on a forward hop);
//   - a batch of over-cap chains ends in DropLinkDown, one per frame;
//   - every pooled buffer taken is given back once the output rings
//     are drained.
func FuzzForwardBatch(f *testing.F) {
	auth := token.NewAuthority([]byte("fuzz-key"))
	tok := auth.Issue(token.Spec{Account: 7, Port: 5})
	seeds := [][]byte{
		unicastTo(f, 2, "plain"),
		wireImage(f, "tokened", viper.Segment{Port: 5, PortToken: tok}, viper.Segment{Port: viper.PortLocal}),
		treeTo(f, 3, "tree"),
		wireImage(f, "failover",
			dagSeg(f, 2, viper.Segment{Port: 3}, viper.Segment{Port: viper.PortLocal}),
			viper.Segment{Port: viper.PortLocal}),
		overCapChain(f),
		[]byte("\xff\x00garbage\x01"),
	}
	// A leading byte of k-1 makes a batch of k frames.
	mixed := []byte{byte(len(seeds) - 1)}
	for _, s := range seeds {
		f.Add(append([]byte{0}, s...))
		mixed = append(mixed, s...)
	}
	f.Add(mixed)
	chain := overCapChain(f)
	f.Add(append([]byte{2}, bytes.Repeat(chain, 3)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%8)
		body := data[1:]
		frames := make([][]byte, 0, n)
		chains := 0
		for i := 0; i < n; i++ {
			fr := body[i*len(body)/n : (i+1)*len(body)/n]
			if bytes.Equal(fr, chain) {
				chains++
			}
			frames = append(frames, fr)
		}

		rig := newForwardRig(2, 5)
		peer := rig.fuse(3, 2, 3, 5)
		rig.r.SetTokenAuthority(auth)
		rig.r.RequireToken(5)
		flap := false
		rig.r.plane.Hooks.PortUp = func(uint8) bool { flap = !flap; return !flap }
		var log endLog

		gets0, _, puts0, rej0 := pool.Stats()
		rig.forward(&log, frames...)
		handed := uint64(len(peer.r.sc.in))
		rig.r.w.runWork()
		gets1, _, _, _ := pool.Stats()
		branches := gets1 - gets0 - uint64(n) // fanoutTree takes one buffer per branch copy
		fanouts := uint64(0)
		for _, a := range log.last {
			if a == trace.ActionForward {
				fanouts++
			}
		}
		for _, r := range []*forwardRig{rig, peer} {
			for port := range r.out {
				r.drain(port, nil)
			}
		}

		s, ps := rig.r.Stats(), peer.r.Stats()
		ended := s.Forwarded + s.Local + s.TotalDrops() + ps.Forwarded + ps.Local + ps.TotalDrops()
		if want := uint64(n) + branches + handed - fanouts; ended != want {
			t.Fatalf("%d frames + %d branch copies + %d handed to the peer - %d fanouts = %d dispositions, counted %d: %v, peer %v",
				n, branches, handed, fanouts, want, ended, s, ps)
		}
		if chains == n && s.DropCount(stats.DropLinkDown) != uint64(n) {
			t.Fatalf("%d over-cap chains, %d link-down drops: %v", n, s.DropCount(stats.DropLinkDown), s)
		}
		// A Put either recycles the buffer or rejects it (an undersized
		// or surplus one); either way it is the buffer's one return.
		gets2, _, puts2, rej2 := pool.Stats()
		if taken, back := gets2-gets0, (puts2-puts0)+(rej2-rej0); taken != back {
			t.Fatalf("pool: %d buffers taken, %d given back", taken, back)
		}
	})
}
