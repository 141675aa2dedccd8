package proxy

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"funabuse/internal/simrand"
)

func TestPoolGeneratesDistinctValidIPs(t *testing.T) {
	p := NewPool(simrand.New(1), "FR", 300)
	if len(p.exits) != 300 {
		t.Fatalf("Size() = %d", len(p.exits))
	}
	seen := map[IP]bool{}
	for _, ip := range exitsOf(p) {
		if seen[ip] {
			t.Fatalf("duplicate exit %s", ip)
		}
		seen[ip] = true
		assertValidIP(t, ip)
	}
}

// exitsOf renders every exit of p, in pool order.
func exitsOf(p *Pool) []IP {
	out := make([]IP, len(p.exits))
	for i := range out {
		out[i] = p.exit(i)
	}
	return out
}

func assertValidIP(t *testing.T, ip IP) {
	t.Helper()
	parts := strings.Split(string(ip), ".")
	if len(parts) != 4 {
		t.Fatalf("malformed IP %q", ip)
	}
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			t.Fatalf("malformed octet in %q", ip)
		}
	}
}

func TestPoolsDisjointAcrossCountries(t *testing.T) {
	r := simrand.New(2)
	fr := NewPool(r.Derive("fr"), "FR", 200)
	uz := NewPool(r.Derive("uz"), "UZ", 200)
	for _, ip := range exitsOf(uz) {
		if fr.Contains(ip) {
			t.Fatalf("exit %s in both FR and UZ pools", ip)
		}
	}
}

func TestPoolDrawIsMember(t *testing.T) {
	p := NewPool(simrand.New(3), "GB", 50)
	for range 500 {
		if !p.Contains(p.Draw()) {
			t.Fatal("Draw returned non-member")
		}
	}
}

func TestServiceExitMatchesCountryPool(t *testing.T) {
	s := NewService(simrand.New(6))
	s.poolSize = 64
	ip := s.Exit("UZ")
	pool, ok := s.pools["UZ"]
	if !ok {
		t.Fatal("pool not materialized")
	}
	if !pool.Contains(ip) {
		t.Fatalf("exit %s not in UZ pool", ip)
	}
	if len(pool.exits) != 64 {
		t.Fatalf("pool size %d, want 64", len(pool.exits))
	}
}

func TestServiceBilling(t *testing.T) {
	s := NewService(simrand.New(7))
	for range 250 {
		s.Exit("FR")
	}
	if s.requests != 250 {
		t.Fatalf("Requests() = %d", s.requests)
	}
	if got, want := s.SpendUSD(), 250*DefaultCostPerRequestUSD; got != want {
		t.Fatalf("SpendUSD() = %v, want %v", got, want)
	}
}

func TestSessionPerRequestRotates(t *testing.T) {
	s := NewService(simrand.New(9))
	s.poolSize = 1024
	sess := s.NewSession("FR", RotatePerRequest)
	seen := map[IP]bool{}
	for range 100 {
		seen[sess.Addr()] = true
	}
	if len(seen) < 80 {
		t.Fatalf("per-request rotation produced only %d distinct exits", len(seen))
	}
}

func TestSessionStickyHoldsExit(t *testing.T) {
	s := NewService(simrand.New(10))
	sess := s.NewSession("FR", RotatePerSession)
	first := sess.Addr()
	for range 50 {
		if sess.Addr() != first {
			t.Fatal("sticky session rotated without a block")
		}
	}
	if s.requests != 1 {
		t.Fatalf("sticky session billed %d requests, want 1", s.requests)
	}
}

func TestSessionOnBlockRotatesOnlyAfterBlock(t *testing.T) {
	s := NewService(simrand.New(11))
	s.poolSize = 4096
	sess := s.NewSession("FR", RotateOnBlock)
	first := sess.Addr()
	if sess.Addr() != first {
		t.Fatal("on-block session rotated spontaneously")
	}
	sess.Blocked()
	second := sess.Addr()
	if second == first {
		t.Fatal("on-block session kept blocked exit (possible but vanishingly unlikely with 4096 exits)")
	}
}

func TestRotationPolicyString(t *testing.T) {
	cases := map[RotationPolicy]string{
		RotatePerRequest:  "per-request",
		RotatePerSession:  "per-session",
		RotateOnBlock:     "on-block",
		RotationPolicy(9): "RotationPolicy(9)",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestPoolDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a := NewPool(simrand.New(seed), "TH", 32)
		b := NewPool(simrand.New(seed), "TH", 32)
		for i := range a.exits {
			if a.exits[i] != b.exits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewPoolMinimumSize(t *testing.T) {
	if got := len(NewPool(simrand.New(12), "SG", 0).exits); got != 1 {
		t.Fatalf("zero-size pool has %d exits, want 1", got)
	}
}
