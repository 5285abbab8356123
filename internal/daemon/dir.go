// Package daemon implements sirpentd's roles as library functions, so
// each role — the directory service (`dir`), a UDP cluster peer
// (`peer`, optionally serving a debug mux) and the standalone gateway —
// is a Config struct plus a function, testable without flag parsing.
// cmd/sirpentd is a thin subcommand dispatcher over this package.
// RunCluster is the one cluster run — a directory plus N peers, driven
// and judged — that `sirpentd run` (N = 1), cmd/sirpent-cluster and the
// cluster tests all make.
package daemon

import (
	"fmt"
	"net"
	"net/http"

	"repro/internal/check"
	"repro/internal/directory"
)

// DirConfig configures the directory-service role: the daemon that
// owns the topology model for one seeded scenario, hands out
// tokened routes over HTTP, and coordinates cluster formation.
type DirConfig struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0" (tests) or
	// ":7474" (deployment).
	Addr string
	// Seed selects the conformance scenario the cluster realizes.
	Seed int64
	// Peers is the number of peer daemons expected to register;
	// barriers and report collection release at this count.
	Peers int
}

// DirServer is a running directory service.
type DirServer struct {
	// URL is the service base, e.g. "http://127.0.0.1:41234".
	URL string
	// Scenario is the seed-derived topology the directory serves.
	Scenario *check.Scenario

	ln   net.Listener
	srv  *http.Server
	errc chan error
}

// StartDir builds the scenario's topology model — the identical
// token-guarded internetwork the single-process conformance run
// queries in-process — and serves it as a directory.NetService. Route
// answers and the tokens on them are therefore byte-identical to what
// check.FlowRoutesAccounted computes for the same seed, which is what
// makes cross-process ledger parity a checkable equality rather than
// an approximation.
func StartDir(cfg DirConfig) (*DirServer, error) {
	if cfg.Peers <= 0 {
		return nil, fmt.Errorf("daemon: dir needs a positive peer count, got %d", cfg.Peers)
	}
	sc := check.Generate(cfg.Seed)
	inet := check.BuildNetsimTokened(sc)
	ns := directory.NewNetService(inet.Directory(), cfg.Peers)

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: dir listen %q: %w", cfg.Addr, err)
	}
	ds := &DirServer{
		URL:      "http://" + ln.Addr().String(),
		Scenario: sc,
		ln:       ln,
		srv:      &http.Server{Handler: ns.Handler()},
		errc:     make(chan error, 1),
	}
	go func() {
		err := ds.srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		ds.errc <- err
	}()
	return ds, nil
}

// Wait blocks until the server exits (via Close or a serve error).
func (d *DirServer) Wait() error { return <-d.errc }

// Close stops the server immediately; in-flight barrier waiters get
// their requests aborted.
func (d *DirServer) Close() error { return d.srv.Close() }
