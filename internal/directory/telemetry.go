package directory

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/token"
	"repro/internal/trace"
)

// This file is the directory's report sink: the §3 directory already
// aggregates authorization and accounting state for the cluster, and
// each peer's evidence rides the same channel. A peer periodically
// POSTs one cumulative snapshot — delivery record, router and tunnel
// counters, gateway relay stats, trace spans, flight-recorder tail —
// and a last one, marked final, after its drain barrier. Anyone (the
// launcher, a human with curl) GETs the merged cluster-wide view:
//
//	POST /v1/telemetry  snapshot -> 204 (latest-wins per peer by seq)
//	GET  /debug/cluster          -> ClusterReport
//
// The directory does not own the snapshot's schema (the daemon does);
// it keeps each peer's latest document as raw JSON and decodes only
// the header it acts on. Snapshots are cumulative, not deltas, so the
// merge is stateless: keep the highest-seq document per peer, fold the
// per-stage histograms together with trace.MergeStages. A late or
// duplicate POST (retried request, slow peer) can never double-count.

// snapshotHeader is the part of a peer's snapshot the directory reads.
type snapshotHeader struct {
	Peer  string `json:"peer"`
	Seq   uint64 `json:"seq"`
	Final bool   `json:"final"` // shipped after the peer's drain barrier
	Spans struct {
		Stages []trace.StageStats `json:"stages"`
	} `json:"spans"`
}

// snapshot is one peer's latest document and its decoded header.
type snapshot struct {
	snapshotHeader
	raw json.RawMessage
}

// ClusterReport is the merged cluster-wide view served at
// /debug/cluster.
type ClusterReport struct {
	Expect int `json:"expect"` // cluster size
	Final  int `json:"final"`  // peers whose latest snapshot is final
	// Nodes holds each peer's latest snapshot as the peer sent it,
	// sorted by peer name.
	Nodes []json.RawMessage `json:"nodes"`
	// Stages is the cluster-wide per-stage latency view: every node's
	// span histograms absorbed stage-by-stage, so counts are exact.
	Stages []trace.StageStats     `json:"stages,omitempty"`
	Bill   map[uint32]token.Usage `json:"bill,omitempty"`
}

// Complete reports whether every expected peer's latest snapshot is
// final.
func (cr ClusterReport) Complete() bool { return cr.Final >= cr.Expect }

func (ns *NetService) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(r.Body)
	var s snapshot
	if err == nil {
		err = json.Unmarshal(raw, &s.snapshotHeader)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	if s.Peer == "" {
		http.Error(w, "snapshot needs a peer name", http.StatusBadRequest)
		return
	}
	s.raw = raw
	ns.mu.Lock()
	if prev, ok := ns.latest[s.Peer]; !ok || s.Seq >= prev.Seq {
		ns.latest[s.Peer] = s
	}
	ns.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (ns *NetService) handleCluster(w http.ResponseWriter, r *http.Request) {
	ns.mu.Lock()
	rep := ns.clusterLocked()
	ns.mu.Unlock()
	writeJSON(w, http.StatusOK, rep)
}

// clusterLocked merges the latest per-peer snapshots into one report.
func (ns *NetService) clusterLocked() ClusterReport {
	out := ClusterReport{Expect: ns.expect, Bill: ns.svc.Bill()}
	names := make([]string, 0, len(ns.latest))
	for k := range ns.latest {
		names = append(names, k)
	}
	sort.Strings(names)
	groups := make([][]trace.StageStats, 0, len(names))
	for _, k := range names {
		s := ns.latest[k]
		out.Nodes = append(out.Nodes, s.raw)
		if s.Final {
			out.Final++
		}
		groups = append(groups, s.Spans.Stages)
	}
	out.Stages = trace.MergeStages(groups...)
	return out
}

// Telemetry ships one cumulative snapshot to the directory. The
// snapshot must marshal to an object with a non-empty "peer" and a
// "seq" that grows with every shipment from that peer.
func (c *Client) Telemetry(snap any) error {
	return c.post("/v1/telemetry", snap, nil)
}

// Cluster fetches the merged cluster-wide report.
func (c *Client) Cluster() (ClusterReport, error) {
	var rep ClusterReport
	err := c.get("/debug/cluster", &rep)
	return rep, err
}

// WaitCluster polls the merged report until it is Complete or the
// deadline passes. On timeout it returns the last report fetched
// alongside the error, so a caller can still show what did arrive.
func (c *Client) WaitCluster(deadline time.Duration) (ClusterReport, error) {
	end := time.Now().Add(deadline)
	for {
		rep, err := c.Cluster()
		if err == nil && rep.Complete() {
			return rep, nil
		}
		if time.Now().After(end) {
			if err == nil {
				err = fmt.Errorf("directory client: %d/%d peers final at deadline", rep.Final, rep.Expect)
			}
			return rep, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}
