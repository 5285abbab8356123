package trace

import (
	"sync/atomic"
	"time"
)

// ClusterTracer is the Tracer a distributed sirpentd peer installs: it
// both traces every packet it originates (stamping each record with a
// cluster-unique Context so tunnels and gateways can carry it across
// process boundaries) and resumes traces that arrive from other
// processes. Finished records fold into a Spans aggregator, as one
// span per record covering the packet's transit of this process —
// stage "origin" for records begun here, "forward" for resumed ones.
//
// The begun/resumed/finished counters give the span-leak invariant the
// cluster verifier checks at quiesce: every record opened in this
// process (either way) must have been finished — delivered, dropped,
// or handed off at a tunnel tap — so finished == begun + resumed.
type ClusterTracer struct {
	node   string
	idBase uint64
	spans  *Spans

	seq      atomic.Uint64
	begun    atomic.Uint64
	resumed  atomic.Uint64
	finished atomic.Uint64
}

// NewClusterTracer creates a tracer for one peer. idBase is OR-ed into
// every originated trace ID and must not collide across peers (the
// daemon uses (peerIndex+1)<<48); spans may be nil.
func NewClusterTracer(node string, idBase uint64, spans *Spans) *ClusterTracer {
	return &ClusterTracer{node: node, idBase: idBase, spans: spans}
}

// Begin implements Tracer: stamp a new cluster-wide trace, numbered
// from seq.
func (c *ClusterTracer) Begin(payload []byte) *PacketTrace {
	c.begun.Add(1)
	id := c.idBase | c.seq.Add(1)
	return &PacketTrace{
		ID:   id,
		Ctx:  Context{ID: id, Origin: time.Now().UnixNano(), Budget: DefaultHopBudget},
		Hops: make([]HopEvent, 0, 8),
	}
}

// Resume implements Resumer: re-open a record for a context that
// crossed a process boundary.
func (c *ClusterTracer) Resume(ctx Context) *PacketTrace {
	c.resumed.Add(1)
	return &PacketTrace{ID: ctx.ID, Ctx: ctx, Hops: make([]HopEvent, 0, 8)}
}

// Finish implements Tracer: record this process's segment of the
// packet's journey as a span.
// Hop stamps share one process-local base, so the span duration
// (last hop At - first hop At) is exact even though the base is not
// comparable across processes.
func (c *ClusterTracer) Finish(pt *PacketTrace) {
	c.finished.Add(1)
	if c.spans != nil && len(pt.Hops) > 0 {
		stage := "forward"
		if pt.Ctx.ID&idBaseMask == c.idBase&idBaseMask {
			stage = "origin"
		}
		c.spans.Record(Span{
			Trace: pt.Ctx.ID,
			Stage: stage,
			Node:  c.node,
			Start: pt.Hops[0].At,
			End:   pt.Hops[len(pt.Hops)-1].At,
		})
	}
}

// idBaseMask selects the peer-identity bits of a trace ID (the daemon
// packs the peer index above bit 48).
const idBaseMask uint64 = 0xFFFF << 48

// Counts returns how many records this tracer originated, resumed,
// and finished. At quiesce finished == begun + resumed, or spans have
// leaked.
func (c *ClusterTracer) Counts() (begun, resumed, finished uint64) {
	return c.begun.Load(), c.resumed.Load(), c.finished.Load()
}

// Spans returns the embedded span aggregator (nil if none).
func (c *ClusterTracer) Spans() *Spans { return c.spans }
