package httpgate

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"funabuse/internal/entitygraph"
	"funabuse/internal/obs"
	"funabuse/internal/race"
	"funabuse/internal/simclock"
)

// flaggedGraph builds a graph with one flagged component containing
// fp:abc, ip:203.0.113.66 and ck:syn-1.
func flaggedGraph(t *testing.T) *entitygraph.Graph {
	t.Helper()
	g := entitygraph.New(entitygraph.Config{MinSize: 3, MinTypes: 2, FlagScore: 1})
	g.Observe([]string{"fp:abc", "ip:203.0.113.66", "ck:syn-1"}, 2)
	if !g.Flagged("fp:abc") {
		t.Fatal("setup: component not flagged")
	}
	return g
}

func TestEntityLayerDeniesFlaggedIdentities(t *testing.T) {
	g := New(Config{
		Clock:    simclock.NewManual(t0),
		Entities: flaggedGraph(t),
	})
	r := httptest.NewRequest(http.MethodPost, "/booking/hold", nil)

	cases := []struct {
		name string
		info ClientInfo
		deny bool
	}{
		{"flagged fingerprint", ClientInfo{IP: "198.51.100.1", Fingerprint: 0xabc, HasFingerprint: true}, true},
		{"flagged ip", ClientInfo{IP: "203.0.113.66"}, true},
		{"flagged client key", ClientInfo{IP: "198.51.100.1", ClientKey: "syn-1"}, true},
		{"clean client", ClientInfo{IP: "198.51.100.1", Fingerprint: 0xdef, HasFingerprint: true, ClientKey: "user-1"}, false},
	}
	for _, tc := range cases {
		d := g.Decide(r, tc.info)
		if tc.deny && (d.Reason != ReasonEntity || d.Status != http.StatusForbidden) {
			t.Errorf("%s: got %+v, want entity-graph 403", tc.name, d)
		}
		if !tc.deny && d.Reason != "" {
			t.Errorf("%s: denied %+v", tc.name, d)
		}
	}
}

func TestEntityLayerWrapSetsReasonHeader(t *testing.T) {
	g := New(Config{
		Clock:    simclock.NewManual(t0),
		Entities: flaggedGraph(t),
	})
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	r := httptest.NewRequest(http.MethodPost, "/booking/hold", nil)
	r.RemoteAddr = "203.0.113.66:9999"
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusForbidden || w.Header().Get(ReasonHeader) != ReasonEntity {
		t.Fatalf("code %d reason %q", w.Code, w.Header().Get(ReasonHeader))
	}
}

// TestEntityDecideZeroAllocs extends the zero-alloc acceptance criterion
// to a gate with the entity layer enabled: the admitted hot path — now
// including flagged-component lookups for fingerprint, IP and client key —
// still allocates nothing.
func TestEntityDecideZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	r := httptest.NewRequest(http.MethodGet, "/booking/1", nil)
	info := ClientInfo{IP: "203.0.113.7", ClientKey: "user-1", Fingerprint: 0xabc, HasFingerprint: true}
	entityGate.Decide(r, info) // warm limiter keys
	if avg := testing.AllocsPerRun(512, func() {
		if d := entityGate.Decide(r, info); d.Reason != "" || d.Degraded != 0 {
			t.Fatalf("reason %q mask %d", d.Reason, d.Degraded)
		}
	}); avg != 0 {
		t.Fatalf("entity-layer Decide allocates %v/op, want 0", avg)
	}
}

// entityGate mirrors instrumentedGate with the entity layer enabled. The
// graph holds a flagged component the probed identities do not touch, so
// lookups walk the real read path.
var entityGate = func() *Gate {
	cfg := allocGateConfig
	graph := entitygraph.New(entitygraph.Config{MinSize: 3, MinTypes: 2, FlagScore: 1})
	graph.Observe([]string{"fp:dead", "ip:192.0.2.1", "ck:syn-9"}, 2)
	cfg.Entities = graph
	return New(cfg,
		WithResilience(ResilienceConfig{}),
		WithTelemetry(obs.NewRegistry()),
		WithTraces(obs.NewTraceRing(1024)))
}()

// BenchmarkGateDecideEntity is the instrumented admitted path with the
// entity-linkage layer enabled — three flagged-component lookups on top of
// BenchmarkGateDecideInstrumented. Must stay 0 allocs/op.
func BenchmarkGateDecideEntity(b *testing.B) {
	reqs, infos := benchInputs()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			entityGate.Decide(reqs[i%8], infos[i%512])
			i++
		}
	})
}
