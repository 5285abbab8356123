package router

import (
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/viper"
)

// outPort is the per-output-port state: the netsim port, the priority
// queue of blocked packets, rate limits imposed by downstream congestion
// signals, and this port's own congestion detector.
type outPort struct {
	r     *Router
	port  *netsim.Port
	queue pktQueue

	// limits gates transmission of packets whose next-node port matches
	// a downstream congestion signal (§2.2); keyed by the congested
	// router's port number as named in the packet's source route.
	limits map[uint8]*rateLimit

	// ctl is this port's congestion detector; nil when rate control is
	// disabled.
	ctl *portController

	// kickPending coalesces drain attempts scheduled for the same
	// instant.
	wakeupAt sim.Time

	// delayLine counts packets currently circulating in the §2.1 delay
	// line.
	delayLine int
}

func newOutPort(r *Router, p *netsim.Port) *outPort {
	op := &outPort{r: r, port: p, limits: make(map[uint8]*rateLimit)}
	if r.cfg.RateControl != nil {
		op.ctl = newPortController(op, *r.cfg.RateControl)
	}
	return op
}

// forward handles an authorized packet bound for this port at decision
// time (§2.1 "route onwards" / "route to a blocked packet handler").
func (op *outPort) forward(arr *netsim.Arrival, f *frame) {
	r := op.r
	now := r.eng.Now()
	med := op.port.Medium

	rateMatched := med.RateBps() == arr.In.Medium.RateBps()
	free := med.FreeAt(now) <= now
	gated := !op.eligibleNow(f, now)

	if !free && f.prio.Preemptive() {
		if cur := med.Current(); cur != nil && !cur.Prio.Preemptive() {
			// §2.1: "the switch may abort a packet already in
			// transmission on the given port if the new packet is of
			// a preemptive priority and the current packet in
			// transmission is not."
			med.Abort(cur)
			r.Stats.Preemptions++
			if r.flight != nil {
				r.recordAnomaly(ledger.Event{Port: op.port.ID, Kind: ledger.KindPreempt})
			}
			if f.tr != nil {
				f.tr.Add(trace.HopEvent{
					Node: r.name, InPort: f.in, OutPort: op.port.ID,
					Action: trace.ActionPreempt, At: int64(now),
				})
			}
			free = true
		}
	}

	if free && rateMatched && !gated {
		// Cut-through: begin onward transmission while the tail is
		// still arriving. If the inbound transmission dies, ours must
		// too.
		tx, err := med.Transmit(op.port, f.pkt, f.hdr, f.prio)
		if err != nil {
			r.dropFrame(DropTxError, f)
			return
		}
		op.chargeLimit(f, now)
		arr.Tx.OnAbort(func(at sim.Time) { med.Abort(tx) })
		op.scheduleDrainAt(tx.End())
		r.Stats.CutThrough++
		r.Stats.Forwarded++
		r.Stats.ForwardDelay.Add(float64(now - arr.Start))
		if f.tr != nil {
			f.tr.Add(trace.HopEvent{
				Node: r.name, InPort: f.in, OutPort: op.port.ID,
				Action: trace.ActionForward, CutThrough: true,
				QueueDepth: op.queue.Len(), At: int64(now),
				LatencyNs: int64(now - f.arrived),
			})
			tx.Trace = f.tr
		}
		op.noteForward(f, now)
		return
	}

	// Blocked (or rate-mismatched): the packet must be fully received
	// and buffered, degrading to store-and-forward for this hop.
	if dibFlag(f) && !free {
		r.dropFrame(DropIfBlocked, f)
		return
	}
	wait := arr.End() - now
	r.eng.Schedule(wait, func() {
		if arr.Tx.Aborted() {
			r.dropFrame(DropAborted, f)
			return
		}
		op.enqueue(&queued{
			frame:    f,
			upstream: arr.Tx.From,
			prio:     f.prio,
			enqueued: r.eng.Now(),
		}, arr)
	})
}

// dibFlag reports whether the packet asked to be dropped when blocked.
func dibFlag(f *frame) bool {
	// The DIB flag of the consumed segment is preserved on the appended
	// return segment (the most recently added trailer entry).
	n := len(f.pkt.Trailer)
	if n == 0 {
		return false
	}
	return f.pkt.Trailer[n-1].Flags.Has(viper.FlagDIB)
}

// enqueue adds a fully received packet to the output queue, respecting
// the buffer limit, and kicks the drain. arr is nil for locally
// originated packets.
func (op *outPort) enqueue(it *queued, arr *netsim.Arrival) {
	r := op.r
	if op.queue.Len() >= r.cfg.QueueLimit {
		// §2.1: a blocked packet may be dropped, or enter a local
		// delay line and re-contend later.
		if r.cfg.DelayLine > 0 && op.delayLine < r.cfg.DelayLineCap {
			op.delayLine++
			r.Stats.DelayLoops++
			r.eng.Schedule(r.cfg.DelayLine, func() {
				op.delayLine--
				op.enqueue(it, nil)
			})
			return
		}
		r.dropFrame(DropQueueFull, it.frame)
		return
	}
	if tr := it.frame.tr; tr != nil {
		now := int64(r.eng.Now())
		tr.Add(trace.HopEvent{
			Node: r.name, InPort: it.frame.in, OutPort: op.port.ID,
			Action: trace.ActionBlock, QueueDepth: op.queue.Len(),
			At: now, LatencyNs: now - int64(it.frame.arrived),
		})
	}
	op.queue.push(it)
	if op.ctl != nil {
		op.ctl.noteArrival(it, r.eng.Now())
	}
	op.drain()
}

// drain transmits queued packets while the medium is free and an eligible
// packet exists.
func (op *outPort) drain() {
	r := op.r
	now := r.eng.Now()
	med := op.port.Medium

	for op.queue.Len() > 0 {
		if med.FreeAt(now) > now {
			op.scheduleDrainAt(med.FreeAt(now))
			return
		}
		it := op.queue.peekEligible(func(q *queued) bool { return op.eligibleNow(q.frame, now) })
		if it == nil {
			// All queued packets are rate-gated; wake at the earliest
			// gate expiry.
			if t, ok := op.earliestGate(now); ok {
				op.scheduleDrainAt(t)
			}
			return
		}
		op.queue.remove(it)
		tx, err := med.Transmit(op.port, it.frame.pkt, it.frame.hdr, it.frame.prio)
		if err != nil {
			r.dropFrame(DropTxError, it.frame)
			continue
		}
		// Gated-dwell telemetry: how long a rate-limited frame waited in
		// this queue for its token-bucket gate, beyond the medium itself.
		if len(op.limits) > 0 {
			if p, ok := nextHopPort(it.frame.pkt); ok && op.limits[p] != nil {
				r.gateDwell.Add(float64(now - it.enqueued))
			}
		}
		op.chargeLimit(it.frame, now)
		r.Stats.StoreForward++
		r.Stats.Forwarded++
		r.Stats.QueueDelay.Add(float64(now - it.enqueued))
		if tr := it.frame.tr; tr != nil {
			tr.Add(trace.HopEvent{
				Node: r.name, InPort: it.frame.in, OutPort: op.port.ID,
				Action: trace.ActionForward, QueueDepth: op.queue.Len(),
				At: int64(now), LatencyNs: int64(now - it.frame.arrived),
			})
			tx.Trace = tr
		}
		op.noteForward(it.frame, now)
		// If this transmission is preempted, we still hold the full
		// packet: requeue it unless it asked to be dropped (§2.1 type
		// of service: save vs drop).
		itf := it.frame
		tx.OnAbort(func(at sim.Time) {
			if !dibFlag(itf) {
				op.enqueue(&queued{frame: itf, upstream: it.upstream, prio: itf.prio, enqueued: at}, nil)
			} else {
				r.dropFrame(DropIfBlocked, itf)
			}
		})
		op.scheduleDrainAt(tx.End())
		return
	}
}

// scheduleDrainAt coalesces drain wakeups.
func (op *outPort) scheduleDrainAt(t sim.Time) {
	if t <= op.r.eng.Now() {
		t = op.r.eng.Now()
	}
	if op.wakeupAt == t {
		return
	}
	op.wakeupAt = t
	op.r.eng.At(t, func() {
		if op.wakeupAt == t {
			op.wakeupAt = -1
		}
		op.drain()
	})
}

func (op *outPort) noteForward(f *frame, now sim.Time) {
	if op.ctl != nil {
		op.ctl.noteDeparture(f, now)
	}
}
