package httpgate

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"funabuse/internal/mitigate"
	"funabuse/internal/obs"
	"funabuse/internal/race"
	"funabuse/internal/simclock"
)

func telemetryGate(reg *obs.Registry, ring *obs.TraceRing, opts ...Option) *Gate {
	base := []Option{WithTelemetry(reg), WithTraces(ring)}
	return New(Config{
		Clock:         simclock.NewManual(t0),
		Blocks:        mitigate.NewBlockList(0),
		ProfileLimit:  2,
		ProfileWindow: time.Hour,
		PathLimit:     1 << 30,
		PathWindow:    time.Hour,
	}, append(base, opts...)...)
}

func doGet(t *testing.T, h http.Handler, path, sid string) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	r.RemoteAddr = "203.0.113.9:4711"
	r.Header.Set(FingerprintHeader, "beef")
	if sid != "" {
		r.AddCookie(&http.Cookie{Name: ClientCookie, Value: sid})
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func findSample(t *testing.T, samples []obs.Sample, name string, labels ...obs.Label) float64 {
	t.Helper()
	for _, s := range samples {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for i, l := range labels {
			if s.Labels[i] != l {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	t.Fatalf("sample %s%v not found", name, labels)
	return 0
}

// TestGateTelemetryCountsDecisions drives admitted and denied requests
// through an instrumented gate and checks the registry and trace journal
// agree with the legacy accessors.
func TestGateTelemetryCountsDecisions(t *testing.T) {
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(16)
	g := telemetryGate(reg, ring)
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))

	// Two admitted, then the profile limit (2/hour) denies the third.
	for i := 0; i < 3; i++ {
		doGet(t, h, "/booking/1", "sid-1")
	}

	samples := reg.Gather()
	if got := findSample(t, samples, MetricAdmitted); got != 2 {
		t.Fatalf("admitted = %v, want 2", got)
	}
	if got := findSample(t, samples, MetricDenied); got != 1 {
		t.Fatalf("denied = %v, want 1", got)
	}
	if got := findSample(t, samples, MetricDenials, obs.Label{Name: "reason", Value: ReasonProfile}); got != 1 {
		t.Fatalf("profile denials = %v, want 1", got)
	}
	if got := findSample(t, samples, MetricLatency+"_count"); got != 3 {
		t.Fatalf("latency count = %v, want 3", got)
	}
	// The obs.Value point-read and a full registry gather agree.
	if got := gateStat(t, g, MetricAdmitted); got != 2 {
		t.Fatalf("obs.Value admitted = %d, want 2", got)
	}

	spans := ring.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("trace spans = %d, want 3", len(spans))
	}
	if spans[0].Verdict != obs.VerdictAdmit || spans[2].Verdict != ReasonProfile {
		t.Fatalf("span verdicts = %q, %q", spans[0].Verdict, spans[2].Verdict)
	}
	if spans[2].Path != "/booking/1" {
		t.Fatalf("span path = %q", spans[2].Path)
	}
}

// TestWithTelemetryLabels puts two node-labelled gates on one registry
// and checks their counter families stay separate series, that the base
// labels ride along on collector samples, and that unlabelled obs.Value
// point-reads still resolve.
func TestWithTelemetryLabels(t *testing.T) {
	reg := obs.NewRegistry()
	node := func(i string) obs.Label { return obs.Label{Name: "node", Value: i} }
	g0 := telemetryGate(reg, nil, WithTelemetryLabels(node("0")))
	g1 := telemetryGate(reg, nil, WithTelemetryLabels(node("1")))
	h0 := g0.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	h1 := g1.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))

	// Three through node 0 (third denied by the 2/hour profile limit),
	// one through node 1.
	for range 3 {
		doGet(t, h0, "/booking/1", "sid-1")
	}
	doGet(t, h1, "/booking/1", "sid-1")

	samples := reg.Gather()
	if got := findSample(t, samples, MetricAdmitted, node("0")); got != 2 {
		t.Fatalf("node 0 admitted = %v, want 2", got)
	}
	if got := findSample(t, samples, MetricAdmitted, node("1")); got != 1 {
		t.Fatalf("node 1 admitted = %v, want 1", got)
	}
	if got := findSample(t, samples, MetricDenials,
		node("0"), obs.Label{Name: "reason", Value: ReasonProfile}); got != 1 {
		t.Fatalf("node 0 profile denials = %v, want 1", got)
	}
	if got := findSample(t, samples, MetricLatency+"_count", node("1")); got != 1 {
		t.Fatalf("node 1 latency count = %v, want 1", got)
	}

	// The snapshot collector carries the base labels too, and the
	// label-less point-read still finds the first matching series.
	if got := findSample(t, g0.Collector().Collect(nil), MetricAdmitted, node("0")); got != 2 {
		t.Fatalf("collector admitted = %v, want 2", got)
	}
	if got := gateStat(t, g0, MetricAdmitted); got != 2 {
		t.Fatalf("obs.Value admitted = %d, want 2", got)
	}
}

// TestGateTelemetryExposition renders an instrumented gate through a full
// registry scrape and checks the output parses.
func TestGateTelemetryExposition(t *testing.T) {
	reg := obs.NewRegistry()
	g := telemetryGate(reg, nil, WithResilience(ResilienceConfig{}))
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	doGet(t, h, "/booking/2", "sid-9")

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("gate exposition unparseable: %v\n%s", err, b.String())
	}
	if got := findSample(t, samples, MetricBreakerState, obs.Label{Name: "layer", Value: "profile"}); got != 0 {
		t.Fatalf("profile breaker state = %v, want 0 (closed)", got)
	}
}

// TestWithResilienceOption proves option-built gates get breakers exactly
// like Config.Resilience ones.
func TestWithResilienceOption(t *testing.T) {
	g := New(Config{
		Clock:      simclock.NewManual(t0),
		Blocks:     mitigate.NewBlockList(0),
		PathLimit:  1,
		PathWindow: time.Hour,
	}, WithResilience(ResilienceConfig{}))
	if g.guards[LayerBlocklist].breaker == nil || g.guards[LayerPath].breaker == nil {
		t.Fatal("option-configured resilience did not build breakers")
	}
	if g.guards[LayerChallenge].breaker != nil {
		t.Fatal("disabled layer got a breaker")
	}
}

// TestDecideZeroAllocs pins the tentpole acceptance criterion: the
// admitted hot path allocates NOTHING — not a reduced budget, zero — on
// both the bare gate (internal decide) and the fully instrumented one
// (exported Decide: layers, journal, counters, histogram, trace ring,
// with every layer behind a closed breaker). This replaces the former
// "≤ 4 allocs/op" budget assertions: the pooled decision context,
// pre-resolved step table and scratch-built byte keys leave no per-call
// heap work to budget for.
func TestDecideZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	r := httptest.NewRequest(http.MethodGet, "/booking/1", nil)
	info := ClientInfo{IP: "203.0.113.7", ClientKey: "user-1", Fingerprint: 0xabc, HasFingerprint: true}

	// Warm the limiter keys: the first sighting of a key inserts its
	// window (an allocation by design, amortised over the key's life).
	plainGate.decideAt(r, info, t0)
	instrumentedGate.Decide(r, info)

	if plain := testing.AllocsPerRun(512, func() {
		if reason, _, mask := plainGate.decideAt(r, info, t0); reason != "" || mask != 0 {
			t.Fatalf("plain: reason %q mask %d", reason, mask)
		}
	}); plain != 0 {
		t.Fatalf("bare decide allocates %v/op, want 0", plain)
	}
	if instrumented := testing.AllocsPerRun(512, func() {
		if d := instrumentedGate.Decide(r, info); d.Reason != "" || d.Degraded != 0 {
			t.Fatalf("instrumented: reason %q mask %d", d.Reason, d.Degraded)
		}
	}); instrumented != 0 {
		t.Fatalf("instrumented Decide allocates %v/op, want 0", instrumented)
	}
}

// TestDecideBatchZeroAllocs extends the zero-alloc contract to the batch
// entry point: once the pooled contexts and limiter keys are warm, a
// 64-request DecideBatch on the instrumented gate allocates nothing.
func TestDecideBatchZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	r := httptest.NewRequest(http.MethodGet, "/booking/1", nil)
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{R: r, Info: ClientInfo{
			IP: "203.0.113.7", ClientKey: "user-1", Fingerprint: 0xabc, HasFingerprint: true,
		}}
	}
	out := make([]Decision, len(reqs))
	out = instrumentedGate.DecideBatch(reqs, out) // warm keys and scratch
	if avg := testing.AllocsPerRun(128, func() {
		out = instrumentedGate.DecideBatch(reqs, out)
		if out[0].Reason != "" {
			t.Fatalf("denied: %q", out[0].Reason)
		}
	}); avg != 0 {
		t.Fatalf("DecideBatch allocates %v/round, want 0", avg)
	}
}

// Package-level gates for the alloc tests so AllocsPerRun closures do not
// capture freshly built gates (construction noise must stay outside the
// measured region). The config mirrors BenchmarkGateDecideSharded.
var (
	allocGateConfig = Config{
		Clock:         simclock.NewManual(t0),
		ProfileLimit:  1 << 30,
		ProfileWindow: time.Hour,
		PathLimit:     1 << 30,
		PathWindow:    time.Hour,
	}
	plainGate        = New(allocGateConfig)
	instrumentedGate = New(allocGateConfig,
		WithResilience(ResilienceConfig{}),
		WithTelemetry(obs.NewRegistry()),
		WithTraces(obs.NewTraceRing(1024)))
)
