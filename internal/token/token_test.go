package token

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/viper"
)

var key = []byte("region-stanford-key")

func TestIssueVerifyRoundTrip(t *testing.T) {
	a := NewAuthority(key)
	spec := Spec{
		Account:     42,
		Port:        3,
		MaxPriority: 5,
		ReverseOK:   true,
		Limit:       1 << 20,
		Expiry:      1_000_000_000,
		Nonce:       77,
	}
	tok := a.Issue(spec)
	if len(tok) != WireLen {
		t.Fatalf("token length %d, want %d", len(tok), WireLen)
	}
	got, err := a.Verify(tok)
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, spec)
	}
}

func TestForgeryDetected(t *testing.T) {
	a := NewAuthority(key)
	tok := a.Issue(Spec{Account: 1, Port: 2})
	for i := range tok {
		mut := append([]byte(nil), tok...)
		mut[i] ^= 0x01
		if _, err := a.Verify(mut); err == nil {
			t.Errorf("flipping byte %d went undetected", i)
		}
	}
}

func TestWrongAuthorityRejects(t *testing.T) {
	a := NewAuthority(key)
	b := NewAuthority([]byte("other-domain"))
	tok := a.Issue(Spec{Account: 1, Port: 2})
	if _, err := b.Verify(tok); err != ErrForged {
		t.Fatalf("err = %v, want ErrForged", err)
	}
}

func TestVerifyBadLength(t *testing.T) {
	a := NewAuthority(key)
	if _, err := a.Verify(make([]byte, 5)); err != ErrBadToken {
		t.Fatalf("err = %v, want ErrBadToken", err)
	}
}

func TestSpecAuthorizes(t *testing.T) {
	s := Spec{Port: 3, MaxPriority: 5, Expiry: 1000}
	cases := []struct {
		port uint8
		prio viper.Priority
		now  int64
		want bool
	}{
		{3, 5, 500, true},
		{3, 0, 500, true},
		{4, 5, 500, false},  // wrong port
		{3, 6, 500, false},  // priority too high
		{3, 5, 1001, false}, // expired
		{3, 15, 500, true},  // below-normal priority always within bound
	}
	for i, c := range cases {
		if got := s.Authorizes(c.port, c.prio, c.now, false); got != c.want {
			t.Errorf("case %d: Authorizes = %v, want %v", i, got, c.want)
		}
	}
	anyPort := Spec{Port: PortAny, MaxPriority: 7}
	if !anyPort.Authorizes(200, 7, 0, false) {
		t.Error("PortAny should authorize every port")
	}
	noExpiry := Spec{Port: 1}
	if !noExpiry.Authorizes(1, 0, 1<<62, false) {
		t.Error("zero expiry should never expire")
	}
}

func TestSpecAuthorizesReverse(t *testing.T) {
	rev := Spec{Port: 3, MaxPriority: 5, ReverseOK: true}
	if !rev.Authorizes(200, 2, 0, true) {
		t.Error("ReverseOK token must authorize any return port")
	}
	if rev.Authorizes(200, 7, 0, true) {
		t.Error("reverse use must still respect the priority bound")
	}
	fwd := Spec{Port: 3, MaxPriority: 5, ReverseOK: false}
	if fwd.Authorizes(3, 2, 0, true) {
		t.Error("non-reverse token authorized a return-path packet")
	}
	if !fwd.Authorizes(3, 2, 0, false) {
		t.Error("forward use broken")
	}
}

func TestCacheOptimisticFlow(t *testing.T) {
	a := NewAuthority(key)
	c := NewCache(a)
	tok := a.Issue(Spec{Account: 9, Port: 3, MaxPriority: 7})

	if d := c.Check(tok, 3, 0, 100, 0, false); d != Unverified {
		t.Fatalf("first Check = %v, want Unverified", d)
	}
	if d := c.Install(tok, 3, 0, 100, 0, false); d != Allowed {
		t.Fatalf("Install = %v, want Allowed", d)
	}
	for i := 0; i < 5; i++ {
		if d := c.Check(tok, 3, 0, 100, 0, false); d != Allowed {
			t.Fatalf("cached Check = %v, want Allowed", d)
		}
	}
	if c.Verifies != 1 {
		t.Errorf("Verifies = %d, want 1", c.Verifies)
	}
	if c.Hits != 5 {
		t.Errorf("Hits = %d, want 5", c.Hits)
	}
	u, ok := c.UsageFor(tok)
	if !ok || u.Packets != 6 || u.Bytes != 600 {
		t.Errorf("usage = %+v ok=%v, want 6 packets / 600 bytes", u, ok)
	}
}

func TestCacheNegativeCaching(t *testing.T) {
	a := NewAuthority(key)
	c := NewCache(a)
	forged := make([]byte, WireLen)
	if d := c.Install(forged, 1, 0, 10, 0, false); d != Denied {
		t.Fatalf("Install of forged token = %v, want Denied", d)
	}
	// Subsequent presentations are denied from cache, no re-verification.
	if d := c.Check(forged, 1, 0, 10, 0, false); d != Denied {
		t.Fatalf("Check of cached-invalid = %v, want Denied", d)
	}
	if c.Verifies != 1 {
		t.Errorf("Verifies = %d, want 1 (negative cache)", c.Verifies)
	}
}

func TestCacheLimitEnforced(t *testing.T) {
	a := NewAuthority(key)
	c := NewCache(a)
	tok := a.Issue(Spec{Account: 1, Port: 2, Limit: 250})
	if d := c.Install(tok, 2, 0, 100, 0, false); d != Allowed {
		t.Fatalf("Install = %v", d)
	}
	if d := c.Check(tok, 2, 0, 100, 0, false); d != Allowed {
		t.Fatalf("second packet = %v", d)
	}
	// 200 used; a 100-byte packet would exceed the 250 limit.
	if d := c.Check(tok, 2, 0, 100, 0, false); d != Denied {
		t.Fatalf("over-limit packet = %v, want Denied", d)
	}
	// A smaller packet still fits.
	if d := c.Check(tok, 2, 0, 50, 0, false); d != Allowed {
		t.Fatalf("fitting packet = %v, want Allowed", d)
	}
}

func TestCacheExpiry(t *testing.T) {
	a := NewAuthority(key)
	c := NewCache(a)
	tok := a.Issue(Spec{Account: 1, Port: 2, Expiry: 1000})
	if d := c.Install(tok, 2, 0, 10, 999, false); d != Allowed {
		t.Fatalf("Install before expiry = %v", d)
	}
	if d := c.Check(tok, 2, 0, 10, 1001, false); d != Denied {
		t.Fatalf("Check after expiry = %v, want Denied", d)
	}
}

func TestAccountTotals(t *testing.T) {
	a := NewAuthority(key)
	c := NewCache(a)
	t1 := a.Issue(Spec{Account: 7, Port: 1, Nonce: 1})
	t2 := a.Issue(Spec{Account: 7, Port: 2, Nonce: 2})
	t3 := a.Issue(Spec{Account: 8, Port: 1, Nonce: 3})
	c.Install(t1, 1, 0, 100, 0, false)
	c.Install(t2, 2, 0, 200, 0, false)
	c.Install(t3, 1, 0, 400, 0, false)
	totals := c.AccountTotals()
	if u := totals[7]; u.Bytes != 300 || u.Packets != 2 {
		t.Errorf("account 7 = %+v", u)
	}
	if u := totals[8]; u.Bytes != 400 || u.Packets != 1 {
		t.Errorf("account 8 = %+v", u)
	}
}

func TestCacheFlush(t *testing.T) {
	a := NewAuthority(key)
	c := NewCache(a)
	tok := a.Issue(Spec{Account: 1, Port: 1})
	c.Install(tok, 1, 0, 10, 0, false)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("Len after Flush = %d", c.Len())
	}
	if d := c.Check(tok, 1, 0, 10, 0, false); d != Unverified {
		t.Fatalf("Check after Flush = %v, want Unverified (soft state)", d)
	}
}

func TestPropertySpecRoundTrip(t *testing.T) {
	f := func(account uint32, port uint8, prio uint8, rev bool, limit uint64, expiry int64, nonce uint32) bool {
		if expiry < 0 {
			expiry = -expiry
		}
		spec := Spec{
			Account:     account,
			Port:        port,
			MaxPriority: viper.Priority(prio & 0xF),
			ReverseOK:   rev,
			Limit:       limit,
			Expiry:      expiry,
			Nonce:       nonce,
		}
		a := NewAuthority(key)
		got, err := a.Verify(a.Issue(spec))
		return err == nil && got == spec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyForgeResistance(t *testing.T) {
	a := NewAuthority(key)
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		fake := make([]byte, WireLen)
		r.Read(fake)
		if _, err := a.Verify(fake); err == nil {
			t.Fatalf("random token %x verified", fake)
		}
	}
}

func TestModeString(t *testing.T) {
	if Optimistic.String() != "optimistic" || Block.String() != "block" || Drop.String() != "drop" {
		t.Fatal("Mode.String broken")
	}
	if Allowed.String() != "allowed" || Denied.String() != "denied" || Unverified.String() != "unverified" {
		t.Fatal("Decision.String broken")
	}
}

func BenchmarkVerifyFull(b *testing.B) {
	a := NewAuthority(key)
	tok := a.Issue(Spec{Account: 1, Port: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Verify(tok); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheHit(b *testing.B) {
	a := NewAuthority(key)
	c := NewCache(a)
	tok := a.Issue(Spec{Account: 1, Port: 1})
	c.Install(tok, 1, 0, 0, 0, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := c.Check(tok, 1, 0, 0, 0, false); d != Allowed {
			b.Fatal(d)
		}
	}
}

// TestCacheInterleavedTokens pins that checks of interleaved tokens
// each charge their own entry, that CheckSpec returns the checked
// token's spec, and that Flush forgets every verdict, so a flushed token
// is Unverified, not served stale.
func TestCacheInterleavedTokens(t *testing.T) {
	a := NewAuthority(key)
	c := NewCache(a)
	tokA := a.Issue(Spec{Account: 1, Port: 3, ReverseOK: true})
	tokB := a.Issue(Spec{Account: 2, Port: 3})
	c.Prime(tokA)
	c.Prime(tokB)
	for _, tok := range [][]byte{tokA, tokA, tokB, tokA, tokB, tokB} {
		if d := c.Check(tok, 3, 0, 10, 0, false); d != Allowed {
			t.Fatalf("Check = %v, want Allowed", d)
		}
	}
	for _, tok := range [][]byte{tokA, tokB} {
		if u, _ := c.UsageFor(tok); u.Packets != 3 {
			t.Fatalf("usage %+v, want 3 packets", u)
		}
	}
	if d, spec := c.CheckSpec(tokA, 3, 0, 10, 0, false); d != Allowed || spec == nil || !spec.ReverseOK || spec.Account != 1 {
		t.Fatalf("CheckSpec = %v, %+v; want Allowed with account 1's spec", d, spec)
	}
	// The cache keys a copy: rewriting the caller's bytes in place must
	// not turn a different token into a hit.
	alias := append([]byte(nil), tokA...)
	c.Check(tokB, 3, 0, 10, 0, false)
	c.Check(alias, 3, 0, 10, 0, false)
	alias[0] ^= 0xFF
	if d := c.Check(alias, 3, 0, 10, 0, false); d != Unverified {
		t.Fatalf("a rewritten token = %v, want Unverified", d)
	}
	c.Check(tokA, 3, 0, 10, 0, false)
	c.Flush()
	if d := c.Check(tokA, 3, 0, 10, 0, false); d != Unverified {
		t.Fatalf("after Flush a cached token checks %v, want Unverified", d)
	}
	forged := append([]byte(nil), tokB...)
	forged[len(forged)-1] ^= 0xFF
	c.Prime(forged)
	c.Check(forged, 3, 0, 10, 0, false)
	if d, spec := c.CheckSpec(forged, 3, 0, 10, 0, false); d != Denied || spec != nil {
		t.Fatalf("forged repeat = %v, %+v; want Denied with no spec", d, spec)
	}
}
