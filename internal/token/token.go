// Package token implements Sirpent's port tokens: encrypted,
// difficult-to-forge capabilities that authorize use of a router output
// port, identify the account to charge, optionally bound resource usage,
// and optionally authorize the reverse route (§2.2 of the paper).
//
// The paper's tokens are opaque encrypted capabilities that are expensive
// to check in full but cheap to re-check from a cache. We realize them as
// HMAC-SHA256-authenticated records keyed by the issuing administrative
// domain: full verification computes the MAC; cached verification is a map
// lookup on the token bytes (the paper's "optimistic authorization").
package token

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"

	"repro/internal/viper"
)

// Wire layout: account(4) port(1) maxPrio(1) flags(1) pad(1) limit(8)
// expiry(8) nonce(4) mac(16).
const (
	payloadLen = 28
	macLen     = 16
	// WireLen is the encoded token size in bytes.
	WireLen = payloadLen + macLen
)

// Spec flags.
const (
	flagReverseOK = 1 << 0
)

// PortAny authorizes every port on the issuing router.
const PortAny uint8 = 0xFF

// Spec describes what a token authorizes: "Each token is an encrypted
// (difficult-to-forge) capability that identifies the port and type of
// service that it authorizes, the account to which usage is to be charged,
// optionally a limit on resource usage authorized by this token, and
// whether reverse route charging is authorized" (§2.2).
type Spec struct {
	Account     uint32
	Port        uint8          // authorized output port, or PortAny
	MaxPriority viper.Priority // highest type of service permitted
	ReverseOK   bool           // token also valid for the return route
	Limit       uint64         // byte budget; 0 means unlimited
	Expiry      int64          // virtual-time expiry in ns; 0 means never
	Nonce       uint32         // distinguishes otherwise-identical issues
}

// Authorizes reports whether the spec permits a packet with the given
// output port and priority at virtual time now. reverse marks a packet
// returning along the route the token was issued for (the RPF flag):
// such packets are authorized on any port, but only when the token
// permits reverse-route use (§2.2: "whether reverse route charging is
// authorized").
func (s *Spec) Authorizes(port uint8, prio viper.Priority, now int64, reverse bool) bool {
	if reverse {
		if !s.ReverseOK {
			return false
		}
	} else if s.Port != PortAny && s.Port != port {
		return false
	}
	if prio.Rank() > s.MaxPriority.Rank() {
		return false
	}
	if s.Expiry != 0 && now > s.Expiry {
		return false
	}
	return true
}

func (s *Spec) encodePayload() [payloadLen]byte {
	var b [payloadLen]byte
	binary.BigEndian.PutUint32(b[0:4], s.Account)
	b[4] = s.Port
	b[5] = byte(s.MaxPriority)
	if s.ReverseOK {
		b[6] |= flagReverseOK
	}
	binary.BigEndian.PutUint64(b[8:16], s.Limit)
	binary.BigEndian.PutUint64(b[16:24], uint64(s.Expiry))
	binary.BigEndian.PutUint32(b[24:28], s.Nonce)
	return b
}

func decodePayload(b []byte) Spec {
	return Spec{
		Account:     binary.BigEndian.Uint32(b[0:4]),
		Port:        b[4],
		MaxPriority: viper.Priority(b[5] & 0xF),
		ReverseOK:   b[6]&flagReverseOK != 0,
		Limit:       binary.BigEndian.Uint64(b[8:16]),
		Expiry:      int64(binary.BigEndian.Uint64(b[16:24])),
		Nonce:       binary.BigEndian.Uint32(b[24:28]),
	}
}

// Errors.
var (
	ErrBadToken = errors.New("token: malformed token")
	ErrForged   = errors.New("token: MAC verification failed")
)

// Authority issues and verifies tokens for one administrative domain
// (typically one router or one region of routers sharing a key).
type Authority struct {
	key []byte
}

// NewAuthority creates an authority with the given secret key.
func NewAuthority(key []byte) *Authority {
	return &Authority{key: append([]byte(nil), key...)}
}

// Issue mints the wire form of a token for spec.
func (a *Authority) Issue(spec Spec) []byte {
	payload := spec.encodePayload()
	mac := a.mac(payload[:])
	out := make([]byte, 0, WireLen)
	out = append(out, payload[:]...)
	return append(out, mac...)
}

// Verify performs the full (expensive) check of a token and returns its
// spec. This models the paper's "decrypt and check" step; routers cache
// the result rather than repeating it per packet.
func (a *Authority) Verify(tok []byte) (Spec, error) {
	if len(tok) != WireLen {
		return Spec{}, ErrBadToken
	}
	want := a.mac(tok[:payloadLen])
	if !hmac.Equal(want, tok[payloadLen:]) {
		return Spec{}, ErrForged
	}
	return decodePayload(tok), nil
}

func (a *Authority) mac(payload []byte) []byte {
	m := hmac.New(sha256.New, a.key)
	m.Write(payload)
	return m.Sum(nil)[:macLen]
}

// Mode selects how a router handles a packet whose token is not yet cached
// (§2.2 lists the three alternatives).
type Mode int

const (
	// Optimistic lets the first packet through while the token is
	// verified; subsequent packets use the cached verdict.
	Optimistic Mode = iota
	// Block holds the packet as if its output port were busy until the
	// token is verified.
	Block
	// Drop discards packets with uncached tokens.
	Drop
)

func (m Mode) String() string {
	switch m {
	case Optimistic:
		return "optimistic"
	case Block:
		return "block"
	case Drop:
		return "drop"
	}
	return "unknown"
}

// Usage accumulates per-token accounting: "Cache entries are also used to
// maintain accounting information such as packet or byte counts to be
// charged to the account designated by the token" (§2.2). Denials counts
// packets refused against a verified token (port mismatch, priority too
// high, limit exhausted, expiry) — forged tokens never reach an account,
// so their refusals are visible only in the drop counters.
type Usage struct {
	Packets uint64
	Bytes   uint64
	Denials uint64
}

// Add accumulates o into u.
func (u *Usage) Add(o Usage) {
	u.Packets += o.Packets
	u.Bytes += o.Bytes
	u.Denials += o.Denials
}

// entry is a cached verification verdict plus accounting.
type entry struct {
	spec  Spec
	valid bool
	usage Usage
}

// Cache is a router's token cache, keyed by the raw token bytes ("using
// the encrypted value as the key", §2.2). Invalid tokens are negatively
// cached so repeated presentations are blocked cheaply.
//
// A Cache is safe for concurrent use: livenet routers charge usage from
// their forwarding goroutines while ledger collectors sweep AccountTotals.
// MAC verification (the expensive part of Install) runs outside the lock.
type Cache struct {
	auth *Authority

	mu      sync.Mutex
	entries map[string]*entry

	// Verifies counts full MAC verifications performed (cache misses);
	// Hits counts lookups answered from cache. Both are guarded by the
	// cache's internal lock: read them via Metrics, or directly only
	// after the traffic using the cache has quiesced.
	Verifies uint64
	Hits     uint64
}

// NewCache creates a token cache that verifies against auth.
func NewCache(auth *Authority) *Cache {
	return &Cache{auth: auth, entries: make(map[string]*entry)}
}

// Decision is the outcome of a cache lookup.
type Decision int

const (
	// Allowed: the token is cached and valid for the request.
	Allowed Decision = iota
	// Denied: the token is cached and invalid, exhausted, or does not
	// authorize the request.
	Denied
	// Unverified: the token has not been seen before; the caller applies
	// its Mode (optimistic / block / drop) and calls Install when the
	// full verification completes.
	Unverified
)

func (d Decision) String() string {
	switch d {
	case Allowed:
		return "allowed"
	case Denied:
		return "denied"
	case Unverified:
		return "unverified"
	}
	return "unknown"
}

// charge applies the authorization-and-charge logic shared by Check and
// Install against a locked entry.
func (e *entry) charge(port uint8, prio viper.Priority, bytes uint64, now int64, reverse bool) Decision {
	if !e.valid {
		return Denied
	}
	if !e.spec.Authorizes(port, prio, now, reverse) ||
		(e.spec.Limit != 0 && e.usage.Bytes+bytes > e.spec.Limit) {
		e.usage.Denials++
		return Denied
	}
	e.usage.Packets++
	e.usage.Bytes += bytes
	return Allowed
}

// Check looks up a token for a packet of size bytes destined for port at
// priority prio, charging the account on success. now is virtual time.
func (c *Cache) Check(tok []byte, port uint8, prio viper.Priority, bytes uint64, now int64, reverse bool) Decision {
	d, _ := c.CheckSpec(tok, port, prio, bytes, now, reverse)
	return d
}

// CheckSpec is Check that also returns the token's spec when the cache
// holds it as genuine, and nil otherwise, so a router learns under one
// lock what the token authorizes beyond this hop (reverse use, the
// account a denial refuses). The spec is the cache's own: a cached
// spec never changes, so it may be read after the call without the
// lock, but it must not be written.
func (c *Cache) CheckSpec(tok []byte, port uint8, prio viper.Priority, bytes uint64, now int64, reverse bool) (Decision, *Spec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[string(tok)]
	if !ok {
		return Unverified, nil
	}
	c.Hits++
	d := e.charge(port, prio, bytes, now, reverse)
	if !e.valid {
		return d, nil
	}
	return d, &e.spec
}

// Install performs the full verification of a token and caches the
// verdict. It returns the decision the verified token would have produced
// for the triggering packet (so a blocking router can release or drop it).
// If the token is already cached — another in-flight packet's verification
// completed first — the existing entry and its accumulated usage are kept.
func (c *Cache) Install(tok []byte, port uint8, prio viper.Priority, bytes uint64, now int64, reverse bool) Decision {
	e := c.install(tok)
	c.mu.Lock()
	defer c.mu.Unlock()
	return e.charge(port, prio, bytes, now, reverse)
}

// Prime verifies and caches a token without charging any usage. Routers
// in Drop mode use it after discarding a packet with an uncached token
// so later packets are served from cache; the dropped packet is never
// billed. It reports whether the token verified as genuine.
func (c *Cache) Prime(tok []byte) bool {
	e := c.install(tok)
	c.mu.Lock()
	defer c.mu.Unlock()
	return e.valid
}

// install verifies tok (outside the lock — HMAC is the expensive step)
// and returns its cache entry, creating it if absent.
func (c *Cache) install(tok []byte) *entry {
	spec, err := c.auth.Verify(tok)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Verifies++
	e, ok := c.entries[string(tok)]
	if !ok {
		e = &entry{spec: spec, valid: err == nil}
		c.entries[string(tok)] = e
	}
	return e
}

// Metrics returns the verification and cache-hit counters.
func (c *Cache) Metrics() (verifies, hits uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Verifies, c.Hits
}

// SpecFor returns the cached spec for a token, if the token has been
// verified and found valid. Routers use this to decide whether the token
// authorizes the reverse route.
func (c *Cache) SpecFor(tok []byte) (Spec, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[string(tok)]
	if !ok || !e.valid {
		return Spec{}, false
	}
	return e.spec, true
}

// UsageFor returns the accumulated usage charged against a token.
func (c *Cache) UsageFor(tok []byte) (Usage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[string(tok)]
	if !ok {
		return Usage{}, false
	}
	return e.usage, true
}

// AccountTotals aggregates usage per account across all cached tokens.
func (c *Cache) AccountTotals() map[uint32]Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint32]Usage)
	for _, e := range c.entries {
		if !e.valid {
			continue
		}
		u := out[e.spec.Account]
		u.Add(e.usage)
		out[e.spec.Account] = u
	}
	return out
}

// Len reports the number of cached tokens (valid and invalid).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Flush discards all cached verdicts, as after a router restart; the
// token state is soft and rebuilt on demand.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*entry)
}
