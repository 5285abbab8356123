package directory

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/token"
)

// Client is the daemon-side consumer of a NetService: the same
// operations the in-process Service offers, over the wire. A zero
// HTTP client with no special transport is fine for the localhost
// clusters this drives, but any http.Client can be injected.
type Client struct {
	base string
	http *http.Client
}

// NewClient targets a NetService at base (e.g. "http://127.0.0.1:7474").
func NewClient(base string) *Client {
	return &Client{base: base, http: &http.Client{}}
}

func (c *Client) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("directory client: marshal %s: %w", path, err)
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("directory client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("directory client: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) get(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return fmt.Errorf("directory client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("directory client: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Register announces this peer and returns the peer set known so far.
func (c *Client) Register(reg PeerReg) ([]PeerReg, error) {
	var reply RegisterReply
	if err := c.post("/v1/register", reg, &reply); err != nil {
		return nil, err
	}
	return reply.Peers, nil
}

// Peers returns the current registrations, sorted by name.
func (c *Client) Peers() ([]PeerReg, error) {
	var peers []PeerReg
	err := c.get("/v1/peers", &peers)
	return peers, err
}

// WaitPeers polls until n peers have registered or the deadline
// passes, returning the full set.
func (c *Client) WaitPeers(n int, deadline time.Duration) ([]PeerReg, error) {
	end := time.Now().Add(deadline)
	for {
		peers, err := c.Peers()
		if err == nil && len(peers) >= n {
			return peers, nil
		}
		if time.Now().After(end) {
			if err == nil {
				err = fmt.Errorf("directory client: %d/%d peers registered", len(peers), n)
			}
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Routes queries the directory; returned segments carry port tokens.
func (c *Client) Routes(q Query) ([]Route, error) {
	var routes []Route
	if err := c.post("/v1/routes", q, &routes); err != nil {
		return nil, err
	}
	return routes, nil
}

// Barrier blocks until every expected peer has reached stage.
func (c *Client) Barrier(peer, stage string) error {
	return c.post("/v1/barrier", BarrierReq{Peer: peer, Stage: stage}, nil)
}

// ReportUsage posts a router's per-account sweep for directory billing.
func (c *Client) ReportUsage(router string, totals map[uint32]token.Usage) error {
	return c.post("/v1/usage", UsageReport{Router: router, Totals: totals}, nil)
}

// Bill fetches the directory's merged per-account billing view.
func (c *Client) Bill() (map[uint32]token.Usage, error) {
	var bill map[uint32]token.Usage
	err := c.get("/v1/bill", &bill)
	return bill, err
}

// Shutdown raises the cluster-wide shutdown latch.
func (c *Client) Shutdown() error {
	return c.post("/v1/shutdown", struct{}{}, nil)
}

// ShutdownRequested reports whether the shutdown latch has been raised.
func (c *Client) ShutdownRequested() (bool, error) {
	var sd bool
	err := c.get("/v1/shutdown", &sd)
	return sd, err
}
