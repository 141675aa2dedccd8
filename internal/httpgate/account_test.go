package httpgate

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/obs"
	"funabuse/internal/race"
	"funabuse/internal/simclock"
)

// tierMap is a fixed AccountLookup for tests; missing keys are guests.
type tierMap map[string]int

func (m tierMap) TierOf(key string) int { return m[key] }

func TestAccountLayerRestrictsByTier(t *testing.T) {
	g := New(Config{Clock: simclock.NewManual(t0)}, WithAccounts(AccountPolicy{
		Lookup:     tierMap{"vip": 1},
		Restricted: map[string]int{"/seatmap/bulk": 1},
	}))
	restricted := httptest.NewRequest(http.MethodGet, "/seatmap/bulk", nil)
	open := httptest.NewRequest(http.MethodGet, "/search", nil)

	cases := []struct {
		name string
		r    *http.Request
		info ClientInfo
		deny bool
	}{
		{"guest on restricted path", restricted, ClientInfo{IP: "198.51.100.1", ClientKey: "newbie"}, true},
		{"anonymous on restricted path", restricted, ClientInfo{IP: "198.51.100.2"}, true},
		{"member on restricted path", restricted, ClientInfo{IP: "198.51.100.3", ClientKey: "vip"}, false},
		{"guest on open path", open, ClientInfo{IP: "198.51.100.1", ClientKey: "newbie"}, false},
	}
	for _, tc := range cases {
		d := g.Decide(tc.r, tc.info)
		if tc.deny && (d.Reason != ReasonAccountTier || d.Status != http.StatusForbidden) {
			t.Errorf("%s: got %+v, want account-tier 403", tc.name, d)
		}
		if !tc.deny && d.Reason != "" {
			t.Errorf("%s: denied %+v", tc.name, d)
		}
	}
}

func TestAccountLayerTierRateMultipliers(t *testing.T) {
	g := New(Config{Clock: simclock.NewManual(t0)}, WithAccounts(AccountPolicy{
		Lookup:    tierMap{"vip": 1},
		BaseLimit: 2,
		Window:    time.Hour,
	}))
	r := httptest.NewRequest(http.MethodGet, "/search", nil)

	decideN := func(info ClientInfo, n int) (admitted int) {
		for i := 0; i < n; i++ {
			if g.Decide(r, info).Reason == "" {
				admitted++
			}
		}
		return admitted
	}
	if got := decideN(ClientInfo{IP: "198.51.100.1", ClientKey: "newbie"}, 5); got != 2 {
		t.Fatalf("guest admitted %d of 5, want base limit 2", got)
	}
	if d := g.Decide(r, ClientInfo{IP: "198.51.100.1", ClientKey: "newbie"}); d.Reason != ReasonAccountLimit || d.Status != http.StatusTooManyRequests {
		t.Fatalf("guest over limit: %+v, want rate-limit-account 429", d)
	}
	if got := decideN(ClientInfo{IP: "198.51.100.2", ClientKey: "vip"}, 10); got != 8 {
		t.Fatalf("member admitted %d of 10, want 2x4=8", got)
	}
	// Anonymous traffic never shares an account bucket: the rate step is
	// skipped entirely.
	if got := decideN(ClientInfo{IP: "198.51.100.3"}, 20); got != 20 {
		t.Fatalf("anonymous admitted %d of 20, want all", got)
	}
}

func TestAccountStoreBackedGate(t *testing.T) {
	// End-to-end over the real store: accounts age on the manual clock and
	// cross tier thresholds, and the gate's verdicts follow.
	clock := simclock.NewManual(t0)
	store := account.NewStore(account.Config{})
	g := New(Config{Clock: clock}, WithAccounts(AccountPolicy{
		Lookup:     store,
		Restricted: map[string]int{"/seatmap/bulk": int(account.Member)},
	}))
	r := httptest.NewRequest(http.MethodGet, "/seatmap/bulk", nil)
	info := ClientInfo{IP: "198.51.100.1", ClientKey: "u1"}

	store.Observe("u1", clock.Now(), true, false)
	if d := g.Decide(r, info); d.Reason != ReasonAccountTier {
		t.Fatalf("fresh account reached member feature: %+v", d)
	}
	clock.Advance(account.DefaultMemberT.MinAge)
	store.Observe("u1", clock.Now(), false, false)
	if d := g.Decide(r, info); d.Reason != "" {
		t.Fatalf("aged member denied: %+v", d)
	}
}

func TestAccountTierTelemetryCountsOnce(t *testing.T) {
	reg := obs.NewRegistry()
	g := New(Config{Clock: simclock.NewManual(t0)},
		WithTelemetry(reg),
		WithAccounts(AccountPolicy{
			Lookup:     tierMap{"vip": 1},
			Restricted: map[string]int{"/seatmap/bulk": 1},
			BaseLimit:  1 << 30,
			Window:     time.Hour,
		}))
	r := httptest.NewRequest(http.MethodGet, "/search", nil)
	// Both account steps evaluate each admitted request; the tier must be
	// counted exactly once per request.
	for i := 0; i < 3; i++ {
		g.Decide(r, ClientInfo{IP: "198.51.100.1", ClientKey: "newbie"})
	}
	g.Decide(r, ClientInfo{IP: "198.51.100.2", ClientKey: "vip"})
	counts := map[string]float64{}
	for _, s := range reg.Gather() {
		if s.Name != MetricAccountTier {
			continue
		}
		for _, l := range s.Labels {
			if l.Name == "tier" {
				counts[l.Value] = s.Value
			}
		}
	}
	if counts["guest"] != 3 || counts["member"] != 1 {
		t.Fatalf("tier counts %v, want guest=3 member=1", counts)
	}
}

// countingTiers is a tierMap that counts its lookups.
type countingTiers struct {
	tierMap
	calls int
}

func (c *countingTiers) TierOf(key string) int {
	c.calls++
	return c.tierMap.TierOf(key)
}

// TestAccountTierLookedUpOncePerDecision pins the shared tier: with both
// account steps enabled, Decide asks the built-in lookup once and both
// steps act on that answer, while consecutive decisions — here a
// DecideBatch — each resolve their own request's tier.
func TestAccountTierLookedUpOncePerDecision(t *testing.T) {
	tiers := &countingTiers{tierMap: tierMap{"vip": 1}}
	g := New(Config{Clock: simclock.NewManual(t0)}, WithAccounts(AccountPolicy{
		Lookup:     tiers,
		Restricted: map[string]int{"/seatmap/bulk": 1},
		BaseLimit:  1,
		Window:     time.Hour,
	}))
	open := httptest.NewRequest(http.MethodGet, "/search", nil)
	vip := ClientInfo{IP: "198.51.100.1", ClientKey: "vip"}
	for i, want := range []string{"", "", "", "", ReasonAccountLimit} {
		if d := g.Decide(open, vip); d.Reason != want {
			t.Fatalf("vip decision %d: %+v, want reason %q", i, d, want)
		}
	}
	if tiers.calls != 5 {
		t.Fatalf("5 decisions made %d tier lookups, want 5", tiers.calls)
	}

	// Decisions reuse pooled contexts, so a member tier carried over to
	// the guest requests would give them the member allowance of 4.
	tiers.tierMap["vip2"] = 1
	member := ClientInfo{IP: "198.51.100.3", ClientKey: "vip2"}
	guest := ClientInfo{IP: "198.51.100.2", ClientKey: "guest"}
	reqs := []Request{{open, member}, {open, member}, {open, guest}, {open, guest}}
	out := g.DecideBatch(reqs, nil)
	for i, want := range []string{"", "", "", ReasonAccountLimit} {
		if out[i].Reason != want {
			t.Fatalf("batch request %d: %+v, want reason %q", i, out[i], want)
		}
	}
}

// accountGate mirrors entityGate with the full account layer enabled —
// store-backed tier lookups, a restricted-path table and per-tier
// limiters — over the instrumented gate config.
var accountGate = New(allocGateConfig,
	WithResilience(ResilienceConfig{}),
	WithTelemetry(obs.NewRegistry()),
	WithTraces(obs.NewTraceRing(1024)),
	WithAccounts(AccountPolicy{
		Lookup: func() *account.Store {
			s := account.NewStore(account.Config{})
			s.Register("user-1", t0.Add(-365*24*time.Hour), 25, t0)
			return s
		}(),
		Restricted: map[string]int{"/seatmap/bulk": 1},
		BaseLimit:  1 << 20,
		Window:     time.Hour,
	}))

// TestAccountDecideZeroAllocs extends the zero-alloc acceptance criterion
// to a gate with the account layer enabled: the admitted hot path — now
// including a store tier lookup, the restricted-path probe and the
// per-tier limiter — still allocates nothing.
func TestAccountDecideZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	r := httptest.NewRequest(http.MethodGet, "/booking/1", nil)
	info := ClientInfo{IP: "203.0.113.7", ClientKey: "user-1", Fingerprint: 0xabc, HasFingerprint: true}
	accountGate.Decide(r, info) // warm limiter keys
	if avg := testing.AllocsPerRun(512, func() {
		if d := accountGate.Decide(r, info); d.Reason != "" || d.Degraded != 0 {
			t.Fatalf("reason %q mask %d", d.Reason, d.Degraded)
		}
	}); avg != 0 {
		t.Fatalf("account-layer Decide allocates %v/op, want 0", avg)
	}
}

// BenchmarkGateDecideAccount is the instrumented admitted path with the
// account-lifecycle layer enabled — a tier lookup, the feature-access
// probe and a per-tier limiter on top of BenchmarkGateDecideInstrumented.
// Must stay 0 allocs/op, as TestAccountDecideZeroAllocs asserts.
func BenchmarkGateDecideAccount(b *testing.B) {
	reqs, infos := benchInputs()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			accountGate.Decide(reqs[i%8], infos[i%512])
			i++
		}
	})
}
