package directory

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/token"
)

// This file is the network face of the directory: the same Service that
// answers in-process route queries, exposed as an HTTP protocol so
// daemons in other OS processes can register, discover each other's
// socket addresses, and obtain routes *with tokens* across the process
// boundary — the §3 directory as an actual network service rather than
// a library call. The protocol is deliberately small and JSON-typed:
//
//	POST /v1/register  PeerReg            -> RegisterReply (all peers so far)
//	GET  /v1/peers                        -> []PeerReg (sorted by name)
//	POST /v1/routes    Query              -> []Route (segments carry tokens)
//	POST /v1/barrier   BarrierReq         -> 200 once every expected peer arrives
//	POST /v1/usage     UsageReport        -> 204 (feeds Service.ReportUsage)
//	GET  /v1/bill                         -> map[account]token.Usage (merged)
//	POST /v1/shutdown                     -> 204 (raise the shutdown latch)
//	GET  /v1/shutdown                     -> bool
//	POST /v1/telemetry peer snapshot      -> 204 (latest-wins per peer by seq; telemetry.go)
//	GET  /debug/cluster                   -> ClusterReport (latest snapshots, merged stages, bill)
//
// Route segments serialize with their port tokens intact (JSON base64),
// so a token minted here verifies unchanged on the guarded router in
// whichever process terminates that hop — token issue is deterministic
// HMAC, which is what makes cross-process ledger parity checkable.

// PeerReg is one daemon's registration: its name, the UDP address of
// its udpnet bridge, the topology nodes it hosts, when the peer runs
// a SOCKS ingress gateway the TCP address clients proxy through, and
// when it serves a debug mux that mux's base URL.
type PeerReg struct {
	Name    string   `json:"name"`
	UDPAddr string   `json:"udp_addr"`
	Nodes   []string `json:"nodes,omitempty"`
	Socks   string   `json:"socks,omitempty"`
	Debug   string   `json:"debug,omitempty"`
}

// RegisterReply acknowledges a registration with the full peer set
// known so far; peers poll GET /v1/peers until the expected count is
// present.
type RegisterReply struct {
	Peers []PeerReg `json:"peers"`
}

// BarrierReq names the stage a peer has reached. The barrier releases
// every waiter once all expected peers have posted the same stage.
type BarrierReq struct {
	Peer  string `json:"peer"`
	Stage string `json:"stage"`
}

// UsageReport is a router's per-account usage sweep, posted so the
// directory can aggregate billing across processes (§3: "the
// authorization and accounting information represents a data base").
type UsageReport struct {
	Router string                 `json:"router"`
	Totals map[uint32]token.Usage `json:"totals"`
}

// NetService serves a directory Service over HTTP to a fixed-size
// cluster of expected peers. The underlying Service is not
// concurrency-safe, so all access is serialized here.
type NetService struct {
	mu  sync.Mutex
	svc *Service

	expect   int
	peers    map[string]PeerReg
	barriers map[string]*barrier
	latest   map[string]snapshot // each peer's latest snapshot (highest seq wins)
	shutdown bool
}

type barrier struct {
	arrived map[string]bool
	done    chan struct{}
}

// NewNetService wraps svc for network consumption by expect peers.
func NewNetService(svc *Service, expect int) *NetService {
	return &NetService{
		svc:      svc,
		expect:   expect,
		peers:    make(map[string]PeerReg),
		barriers: make(map[string]*barrier),
		latest:   make(map[string]snapshot),
	}
}

// Handler returns the service's HTTP mux, mountable on any server.
func (ns *NetService) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", ns.handleRegister)
	mux.HandleFunc("GET /v1/peers", ns.handlePeers)
	mux.HandleFunc("POST /v1/routes", ns.handleRoutes)
	mux.HandleFunc("POST /v1/barrier", ns.handleBarrier)
	mux.HandleFunc("POST /v1/usage", ns.handleUsage)
	mux.HandleFunc("GET /v1/bill", ns.handleBill)
	mux.HandleFunc("POST /v1/shutdown", ns.handleShutdownSet)
	mux.HandleFunc("GET /v1/shutdown", ns.handleShutdownGet)
	mux.HandleFunc("POST /v1/telemetry", ns.handleTelemetry)
	mux.HandleFunc("GET /debug/cluster", ns.handleCluster)
	return mux
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (ns *NetService) handleRegister(w http.ResponseWriter, r *http.Request) {
	var reg PeerReg
	if !readJSON(w, r, &reg) {
		return
	}
	if reg.Name == "" {
		http.Error(w, "registration needs a name", http.StatusBadRequest)
		return
	}
	ns.mu.Lock()
	ns.peers[reg.Name] = reg
	reply := RegisterReply{Peers: ns.sortedPeersLocked()}
	ns.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}

func (ns *NetService) handlePeers(w http.ResponseWriter, r *http.Request) {
	ns.mu.Lock()
	peers := ns.sortedPeersLocked()
	ns.mu.Unlock()
	writeJSON(w, http.StatusOK, peers)
}

// sortedPeersLocked snapshots registrations in name order, so every
// peer sees the identical sequence regardless of arrival order.
func (ns *NetService) sortedPeersLocked() []PeerReg {
	out := make([]PeerReg, 0, len(ns.peers))
	for _, p := range ns.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (ns *NetService) handleRoutes(w http.ResponseWriter, r *http.Request) {
	var q Query
	if !readJSON(w, r, &q) {
		return
	}
	ns.mu.Lock()
	routes, err := ns.svc.Routes(q)
	ns.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, routes)
}

// handleBarrier blocks the request until every expected peer has
// posted the same stage — the request goroutine is the waiter, so no
// client-side polling loop is needed.
func (ns *NetService) handleBarrier(w http.ResponseWriter, r *http.Request) {
	var req BarrierReq
	if !readJSON(w, r, &req) {
		return
	}
	ns.mu.Lock()
	b := ns.barriers[req.Stage]
	if b == nil {
		b = &barrier{arrived: make(map[string]bool), done: make(chan struct{})}
		ns.barriers[req.Stage] = b
	}
	b.arrived[req.Peer] = true
	if len(b.arrived) >= ns.expect {
		select {
		case <-b.done:
		default:
			close(b.done)
		}
	}
	done := b.done
	ns.mu.Unlock()

	select {
	case <-done:
		w.WriteHeader(http.StatusOK)
	case <-r.Context().Done():
		http.Error(w, "barrier wait aborted", http.StatusRequestTimeout)
	}
}

func (ns *NetService) handleUsage(w http.ResponseWriter, r *http.Request) {
	var u UsageReport
	if !readJSON(w, r, &u) {
		return
	}
	ns.mu.Lock()
	ns.svc.ReportUsage(u.Router, u.Totals)
	ns.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (ns *NetService) handleBill(w http.ResponseWriter, r *http.Request) {
	ns.mu.Lock()
	bill := ns.svc.Bill()
	ns.mu.Unlock()
	writeJSON(w, http.StatusOK, bill)
}

// Shutdown is a one-way latch the launcher raises when its externally
// driven workload (the gateway transfer) is done; long-running peers
// poll it to know when to stop serving and proceed to the drain
// barrier. It is coordination state, not topology, so it lives here
// with the barriers rather than in the route model.
func (ns *NetService) handleShutdownSet(w http.ResponseWriter, r *http.Request) {
	ns.mu.Lock()
	ns.shutdown = true
	ns.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (ns *NetService) handleShutdownGet(w http.ResponseWriter, r *http.Request) {
	ns.mu.Lock()
	sd := ns.shutdown
	ns.mu.Unlock()
	writeJSON(w, http.StatusOK, sd)
}
