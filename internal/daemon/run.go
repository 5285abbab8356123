package daemon

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/ledger"
	"repro/internal/livenet"
	"repro/internal/token"
	"repro/internal/trace"
	"repro/internal/viper"
)

// RunConfig configures the legacy single-process demo role: a
// token-guarded two-router backbone driven by concurrent
// request/response clients, with the observability surface optionally
// served over HTTP.
type RunConfig struct {
	Clients  int           // concurrent client hosts; default 4
	Requests int           // transactions per client; default 100
	Metrics  string        // serve metrics/ledger/flightrec on this address ("" = off)
	Hold     time.Duration // keep serving Metrics this long after the workload

	// Out receives the human-readable run summary; nil discards it.
	Out io.Writer
	// Errout receives warnings; nil discards them.
	Errout io.Writer
}

func (c *RunConfig) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c *RunConfig) errout() io.Writer {
	if c.Errout == nil {
		return io.Discard
	}
	return c.Errout
}

// Run executes the single-process workload to completion: the
// `sirpentd run` role, callable from tests without flag parsing.
func Run(cfg RunConfig) error {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 100
	}

	// The flight recorder is always on: it only records anomalies, so a
	// clean run costs nothing and a broken one leaves evidence. The
	// collector sweeps every router created below.
	flight := ledger.NewFlightRecorder(0)
	col := ledger.NewCollector(ledger.New())
	opts := []livenet.NetworkOption{
		livenet.WithFlightRecorder(flight),
		livenet.WithLedgerCollector(col),
	}
	var metrics *trace.Metrics
	if cfg.Metrics != "" {
		metrics = trace.NewMetrics()
		opts = append(opts, livenet.WithTracer(metrics))
	}
	net := livenet.NewNetwork(opts...)
	defer net.Stop()

	r1 := net.NewRouter("r1")
	r2 := net.NewRouter("r2")
	server := net.NewHost("server")
	net.Connect(r1, 100, r2, 1)
	net.Connect(r2, 2, server, 1)

	// Guard the backbone (§2.2): both routers share one region key, the
	// trunk and server ports demand tokens, and each client is billed to
	// its own account.
	auth := token.NewAuthority([]byte("sirpentd-region"))
	r1.SetTokenAuthority(auth)
	r2.SetTokenAuthority(auth)
	r1.RequireToken(100)
	r2.RequireToken(2)

	stopSweep := col.Run(100 * time.Millisecond)
	col.Ledger().Publish("sirpent-ledger")
	flight.Publish("sirpent-flightrec")

	var srv *http.Server
	if cfg.Metrics != "" {
		metrics.Publish("sirpent")
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("/debug/ledger", func(w http.ResponseWriter, _ *http.Request) {
			serveJSON(w, col.Ledger().Snapshot())
		})
		mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, _ *http.Request) {
			serveJSON(w, flight.Snapshot())
		})
		// Profiling rides the same opt-in debug mux: CPU, heap, goroutine
		// and execution-trace profiles against the live workload, with no
		// cost until a profile is actually requested.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv = &http.Server{Addr: cfg.Metrics, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(cfg.errout(), "metrics server:", err)
			}
		}()
	}

	server.Handle(0, func(d livenet.Delivery) {
		if err := server.Send(d.ReturnRoute.Segments(nil), append([]byte("ack:"), d.Data...)); err != nil {
			fmt.Fprintln(cfg.errout(), "server:", err)
		}
	})

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		c := c
		h := net.NewHost(fmt.Sprintf("client%d", c))
		net.Connect(h, 1, r1, uint8(1+c))
		account := uint32(1 + c)
		route := []viper.Segment{
			{Port: 1}, // client interface
			{Port: 100, Flags: viper.FlagVNT, // r1 -> r2 trunk
				PortToken: auth.Issue(token.Spec{Account: account, Port: 100, ReverseOK: true})},
			{Port: 2, Flags: viper.FlagVNT, // r2 -> server
				PortToken: auth.Issue(token.Spec{Account: account, Port: 2, ReverseOK: true})},
			{Port: viper.PortLocal},
		}
		resp := make(chan struct{}, 1)
		h.Handle(0, func(d livenet.Delivery) { resp <- struct{}{} })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cfg.Requests; i++ {
				if err := h.Send(route, []byte(fmt.Sprintf("c%d/%d", c, i))); err != nil {
					fmt.Fprintln(cfg.errout(), "client:", err)
					return
				}
				select {
				case <-resp:
				case <-time.After(5 * time.Second):
					fmt.Fprintf(cfg.errout(), "client %d: timeout on request %d\n", c, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := cfg.Clients * cfg.Requests
	fmt.Fprintf(cfg.out(), "completed %d transactions in %v (%.0f txn/s)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	for _, nr := range []struct {
		name string
		r    *livenet.Router
	}{{"r1", r1}, {"r2", r2}} {
		s := nr.r.Stats()
		fmt.Fprintf(cfg.out(), "  %-3s forwarded=%d local=%d token-auth=%d drops=%d\n",
			nr.name, s.Forwarded, s.Local, s.TokenAuthorized, s.TotalDrops())
	}
	col.Collect()
	col.Ledger().WriteTable(cfg.out(), fmt.Sprintf("per-account ledger (%d sweeps)", col.Ledger().Sweeps()))
	if n := flight.Total(); n > 0 {
		fmt.Fprintf(cfg.out(), "flight recorder captured %d anomalies:\n%s", n, flight.Format())
	}

	if metrics != nil {
		s := metrics.Snapshot()
		fmt.Fprintf(cfg.out(), "traced %d packets / %d hops: hop latency mean=%.0fns p50=%dns p99=%dns\n",
			s.Packets, s.Hops, s.HopLatencyMeanNs, s.HopLatencyP50Ns, s.HopLatencyP99Ns)
		if len(s.Drops) > 0 {
			fmt.Fprintf(cfg.out(), "  drops: %v\n", s.Drops)
		}
		if cfg.Hold > 0 {
			fmt.Fprintf(cfg.out(), "serving on %s: /debug/vars /debug/ledger /debug/flightrec /debug/pprof /healthz for %v\n",
				cfg.Metrics, cfg.Hold)
			time.Sleep(cfg.Hold)
		}
	}

	// Teardown order matters: drain the HTTP server first (a late curl
	// gets its response, new connections are refused), stop the ledger
	// sweeper, and only then — via the deferred Stop — the network.
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(cfg.errout(), "metrics server shutdown:", err)
		}
		cancel()
	}
	stopSweep()
	return nil
}

func serveJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
