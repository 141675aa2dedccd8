package httpgate

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"funabuse/internal/resilience"
)

var errLayerDown = errors.New("layer down")

// faultyCheck is a CheckFunc whose behaviour is switched by the test:
// while broken it returns errLayerDown, otherwise the fixed verdict.
type faultyCheck struct {
	broken  bool
	verdict bool
}

func (f *faultyCheck) check(key string, now time.Time) (bool, error) {
	if f.broken {
		return false, errLayerDown
	}
	return f.verdict, nil
}

func TestGatePanicInChallengeRecovered(t *testing.T) {
	// Satellite regression: a panicking Challenge hook must not take down
	// the serving goroutine — with or without a ResilienceConfig.
	for _, wired := range []bool{false, true} {
		e := newEnv(t, func(c *Config) {
			c.Challenge = func(r *http.Request, info ClientInfo) bool {
				panic("challenge exploded")
			}
			if wired {
				c.Resilience = &ResilienceConfig{}
			}
		})
		w := e.do(t, "/booking/1", withCookie("alice"))
		if w.Code != http.StatusOK {
			t.Fatalf("wired=%v: status %d, want 200 (fail-open)", wired, w.Code)
		}
		if got := w.Header().Get(DegradedHeader); got != "challenge" {
			t.Fatalf("wired=%v: degraded header %q", wired, got)
		}
		lbl := layerLabel(LayerChallenge)
		panics := gateStat(t, e.gate, MetricLayerPanics, lbl)
		errs := gateStat(t, e.gate, MetricLayerErrors, lbl)
		deg := gateStat(t, e.gate, MetricLayerDegraded, lbl)
		if panics != 1 || errs != 1 || deg != 1 {
			t.Fatalf("wired=%v: panics=%d errors=%d degraded=%d", wired, panics, errs, deg)
		}
	}
}

func TestGatePanicInChallengeFailClosed(t *testing.T) {
	e := newEnv(t, func(c *Config) {
		c.Challenge = func(r *http.Request, info ClientInfo) bool {
			panic("challenge exploded")
		}
		c.Resilience = &ResilienceConfig{Challenge: resilience.FailClosed}
	})
	w := e.do(t, "/booking/1", withCookie("alice"))
	if w.Code != http.StatusForbidden {
		t.Fatalf("status %d, want 403", w.Code)
	}
	if got := w.Header().Get(ReasonHeader); got != ReasonChallenge {
		t.Fatalf("reason %q", got)
	}
	if got := w.Header().Get(DegradedHeader); got != "challenge" {
		t.Fatalf("degraded header %q", got)
	}
}

func TestGatePanicInOnDecisionRecovered(t *testing.T) {
	// Satellite regression: a panicking decision journal must not take
	// down the serving goroutine, and under the default fail-open policy
	// the request is still served.
	for _, wired := range []bool{false, true} {
		e := newEnv(t, func(c *Config) {
			c.OnDecision = func(r *http.Request, info ClientInfo, deniedBy string) {
				panic("journal exploded")
			}
			if wired {
				c.Resilience = &ResilienceConfig{}
			}
		})
		w := e.do(t, "/booking/1", withCookie("alice"))
		if w.Code != http.StatusOK {
			t.Fatalf("wired=%v: status %d, want 200", wired, w.Code)
		}
		if got := w.Header().Get(DegradedHeader); got != "decision" {
			t.Fatalf("wired=%v: degraded header %q", wired, got)
		}
		lbl := layerLabel(LayerDecision)
		panics := gateStat(t, e.gate, MetricLayerPanics, lbl)
		deg := gateStat(t, e.gate, MetricLayerDegraded, lbl)
		if panics != 1 || deg != 1 {
			t.Fatalf("wired=%v: panics=%d degraded=%d", wired, panics, deg)
		}
		if got := gateStat(t, e.gate, MetricDegraded); got != 1 {
			t.Fatalf("wired=%v: gate degraded %d", wired, got)
		}
	}
}

func TestGateDecisionFailClosedDenies(t *testing.T) {
	e := newEnv(t, func(c *Config) {
		c.OnDecisionFunc = func(r *http.Request, info ClientInfo, deniedBy string) error {
			return errLayerDown
		}
		c.Resilience = &ResilienceConfig{Decision: resilience.FailClosed}
	})
	w := e.do(t, "/booking/1", withCookie("alice"))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if got := w.Header().Get(ReasonHeader); got != ReasonDecision {
		t.Fatalf("reason %q", got)
	}
	denied := gateStat(t, e.gate, MetricDenied)
	admitted := gateStat(t, e.gate, MetricAdmitted)
	if denied != 1 || admitted != 0 {
		t.Fatalf("denied %d admitted %d", denied, admitted)
	}
}

func TestGateBlocklistOutagePolicies(t *testing.T) {
	// An unavailable blocklist resolves to "not blocked" under FailOpen
	// and to a blocklist denial under FailClosed.
	cases := []struct {
		policy resilience.Policy
		status int
	}{
		{resilience.FailOpen, http.StatusOK},
		{resilience.FailClosed, http.StatusForbidden},
	}
	for _, c := range cases {
		fc := &faultyCheck{broken: true}
		e := newEnv(t, func(cfg *Config) {
			cfg.BlocklistFunc = fc.check
			cfg.Resilience = &ResilienceConfig{Blocklist: c.policy}
		})
		w := e.do(t, "/booking/1", withCookie("alice"))
		if w.Code != c.status {
			t.Fatalf("policy %v: status %d, want %d", c.policy, w.Code, c.status)
		}
		if got := w.Header().Get(DegradedHeader); got != "blocklist" {
			t.Fatalf("policy %v: degraded header %q", c.policy, got)
		}
	}
}

func TestGateLimiterOutagePolicies(t *testing.T) {
	// An unavailable profile limiter admits under FailOpen (availability
	// first: the abuse window re-opens) and denies under FailClosed.
	cases := []struct {
		policy resilience.Policy
		status int
	}{
		{resilience.FailOpen, http.StatusOK},
		{resilience.FailClosed, http.StatusTooManyRequests},
	}
	for _, c := range cases {
		fc := &faultyCheck{broken: true}
		e := newEnv(t, func(cfg *Config) {
			cfg.ProfileCheck = fc.check
			cfg.Resilience = &ResilienceConfig{Profile: c.policy}
		})
		w := e.do(t, "/booking/1", withCookie("alice"))
		if w.Code != c.status {
			t.Fatalf("policy %v: status %d, want %d", c.policy, w.Code, c.status)
		}
		if got := w.Header().Get(DegradedHeader); got != "profile" {
			t.Fatalf("policy %v: degraded header %q", c.policy, got)
		}
	}
}

func TestGateDegradedHeaderListsAllLayers(t *testing.T) {
	// Two simultaneously unavailable layers both appear, comma-separated,
	// in pipeline order.
	e := newEnv(t, func(c *Config) {
		c.BlocklistFunc = (&faultyCheck{broken: true}).check
		c.ProfileCheck = (&faultyCheck{broken: true}).check
		c.Blocks = nil
		c.Resilience = &ResilienceConfig{}
	})
	w := e.do(t, "/booking/1", withCookie("alice"))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if got := w.Header().Get(DegradedHeader); got != "blocklist,profile" {
		t.Fatalf("degraded header %q", got)
	}
	if got := gateStat(t, e.gate, MetricDegraded); got != 1 {
		t.Fatalf("gate degraded %d, want 1 (one decision, two layers)", got)
	}
}

func TestGateHealthyDecisionHasNoDegradedHeader(t *testing.T) {
	e := newEnv(t, func(c *Config) {
		c.ProfileLimit, c.ProfileWindow = 100, time.Hour
		c.Resilience = &ResilienceConfig{}
	})
	w := e.do(t, "/booking/1", withCookie("alice"))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if got := w.Header().Get(DegradedHeader); got != "" {
		t.Fatalf("degraded header %q on healthy decision", got)
	}
	if got := gateStat(t, e.gate, MetricDegraded); got != 0 {
		t.Fatalf("gate degraded %d", got)
	}
}

func TestGateBreakerTripsAndRecovers(t *testing.T) {
	// Drive the profile layer through the full breaker lifecycle from the
	// HTTP surface: errors trip it open, the cooldown admits probes, and
	// probe successes close it again.
	fc := &faultyCheck{broken: true, verdict: true}
	e := newEnv(t, func(c *Config) {
		c.ProfileCheck = fc.check
		c.Resilience = &ResilienceConfig{
			Breaker: resilience.BreakerConfig{
				Window:         time.Minute,
				MinSamples:     4,
				FailureRate:    0.5,
				OpenFor:        30 * time.Second,
				HalfOpenProbes: 2,
			},
		}
	})
	br := e.gate.Breaker(LayerProfile)

	for range 4 {
		if w := e.do(t, "/booking/1", withCookie("alice")); w.Code != http.StatusOK {
			t.Fatalf("fail-open admit: status %d", w.Code)
		}
	}
	if br.State() != resilience.Open {
		t.Fatalf("state %v after 4 errors, want open", br.State())
	}

	// Open: calls short-circuit without touching the (still broken) layer.
	fc.broken = false
	before := gateStat(t, e.gate, MetricLayerErrors, layerLabel(LayerProfile))
	e.do(t, "/booking/1", withCookie("alice"))
	if got := gateStat(t, e.gate, MetricLayerErrors, layerLabel(LayerProfile)); got != before {
		t.Fatalf("layer called while breaker open: errors %d -> %d", before, got)
	}

	// Past the cooldown the breaker probes; two healthy calls close it.
	e.clock.Advance(31 * time.Second)
	for range 2 {
		if w := e.do(t, "/booking/1", withCookie("alice")); w.Code != http.StatusOK {
			t.Fatalf("probe: status %d", w.Code)
		}
	}
	if br.State() != resilience.Closed {
		t.Fatalf("state %v after probes, want closed", br.State())
	}
	if w := e.do(t, "/booking/1", withCookie("alice")); w.Header().Get(DegradedHeader) != "" {
		t.Fatal("degraded header after recovery")
	}
	if br.Opens() != 1 {
		t.Fatalf("opens %d", br.Opens())
	}
}

func TestGateResourceKeyPanicDegradesLayer(t *testing.T) {
	e := newEnv(t, func(c *Config) {
		c.ResourceKey = func(r *http.Request) string { panic("extractor exploded") }
		c.ResourceLimit, c.ResourceWindow = 10, time.Hour
		c.Resilience = &ResilienceConfig{}
	})
	w := e.do(t, "/booking/1", withCookie("alice"))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if got := w.Header().Get(DegradedHeader); got != "resource" {
		t.Fatalf("degraded header %q", got)
	}
	if got := gateStat(t, e.gate, MetricLayerPanics, layerLabel(LayerResource)); got != 1 {
		t.Fatalf("resource layer panics %d, want 1", got)
	}
}

func TestRemoteIPMalformedForwardedFor(t *testing.T) {
	// Satellite regression: a malformed first XFF hop must fall back to
	// RemoteAddr instead of attributing the request to a degenerate key.
	cases := []struct {
		xff  string
		want string
	}{
		{"", "203.0.113.7"},
		{",198.51.100.9", "203.0.113.7"},    // empty first hop
		{"   ,198.51.100.9", "203.0.113.7"}, // whitespace first hop
		{"not-an-ip, 198.51.100.9", "203.0.113.7"},
		{"<script>", "203.0.113.7"},
		{"198.51.100.9", "198.51.100.9"},
		{" 198.51.100.9 , 192.0.2.1", "198.51.100.9"}, // trimmed valid hop
		{"2001:db8::1, 192.0.2.1", "2001:db8::1"},
		// Spellings of one address share one canonical key.
		{"2001:DB8::1", "2001:db8::1"},
		{"2001:db8:0::1", "2001:db8::1"},
		{"2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1"},
		{"fe80::1%a, 192.0.2.1", "fe80::1"},
		{"fe80::1%b", "fe80::1"},
		{"::FFFF:198.51.100.9", "::ffff:198.51.100.9"},
	}
	for _, c := range cases {
		if got := remoteIP(xffRequest(c.xff), true); got != c.want {
			t.Fatalf("XFF %q: remoteIP %q, want %q", c.xff, got, c.want)
		}
	}
}

// xffRequest builds a request from 203.0.113.7 carrying the given
// X-Forwarded-For header (none when empty).
func xffRequest(xff string) *http.Request {
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.RemoteAddr = "203.0.113.7:51000"
	if xff != "" {
		r.Header.Set("X-Forwarded-For", xff)
	}
	return r
}

// FuzzRemoteIP holds remoteIP's X-Forwarded-For handling equal to
// net/netip: a first hop netip parses keys on its zone-free canonical
// spelling, anything else falls back to the socket address, and every
// other spelling of the same address — upper-case, fully expanded, or
// zoned — lands on the same key.
func FuzzRemoteIP(f *testing.F) {
	for _, xff := range []string{
		"", "198.51.100.9", " 198.51.100.9 , 192.0.2.1", "2001:DB8::1",
		"2001:db8:0::1", "fe80::1%eth0", "::ffff:198.51.100.9", ",1.2.3.4",
		"not-an-ip", "01.2.3.4",
	} {
		f.Add(xff)
	}
	f.Fuzz(func(t *testing.T, xff string) {
		got := remoteIP(xffRequest(xff), true)
		first, _, _ := strings.Cut(xff, ",")
		addr, err := netip.ParseAddr(strings.TrimSpace(first))
		if err != nil {
			if got != "203.0.113.7" {
				t.Fatalf("XFF %q: remoteIP %q, want the socket address", xff, got)
			}
			return
		}
		addr = addr.WithZone("")
		if want := addr.String(); got != want {
			t.Fatalf("XFF %q: remoteIP %q, net/netip says %q", xff, got, want)
		}
		spellings := []string{strings.ToUpper(addr.StringExpanded())}
		if addr.Is6() {
			spellings = append(spellings, got+"%z9")
		}
		for _, alt := range spellings {
			if again := remoteIP(xffRequest(alt), true); again != got {
				t.Fatalf("XFF %q keys on %q, its spelling %q on %q", xff, got, alt, again)
			}
		}
	})
}

func TestRemoteIPMalformedForwardedForEndToEnd(t *testing.T) {
	// The fallback matters at the gate level: with a junk XFF every
	// attacker request would share the "ip:" blocklist key. Blocking the
	// real connection address must still take effect.
	e := newEnv(t, func(c *Config) { c.TrustForwardedFor = true })
	e.blocks.Block("ip:203.0.113.7", t0.Add(time.Hour))
	w := e.do(t, "/booking/1", func(r *http.Request) {
		r.Header.Set("X-Forwarded-For", ",evil")
	})
	if w.Code != http.StatusForbidden {
		t.Fatalf("status %d: junk XFF bypassed the IP blocklist", w.Code)
	}
}
