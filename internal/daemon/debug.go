package daemon

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"

	"repro/internal/ledger"
)

// debugMux builds a peer's debug mux (PeerConfig.Debug): liveness, the
// process's expvar registry, the owned routers' per-account ledger, the
// flight recorder, and pprof. Profiling costs nothing until a profile
// is requested: CPU, heap, goroutine and execution-trace profiles
// against the live workload.
func debugMux(led func() ledger.Snapshot, flight *ledger.FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/ledger", func(w http.ResponseWriter, _ *http.Request) {
		serveJSON(w, led())
	})
	mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, _ *http.Request) {
		serveJSON(w, flight.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func serveJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
