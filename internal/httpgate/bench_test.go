package httpgate

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"funabuse/internal/mitigate"
	"funabuse/internal/obs"
	"funabuse/internal/simclock"
)

// mutexGate reproduces the gate's previous limiter core — every decision
// serialised behind one mutex over mitigate.KeyedLimiter — as the baseline
// for the sharded path. Only the contended part is modelled; attribution
// and blocklist checks are identical in both designs.
type mutexGate struct {
	mu      sync.Mutex
	path    *mitigate.KeyedLimiter
	profile *mitigate.KeyedLimiter
}

func (m *mutexGate) allow(path, sid string, now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.profile.Allow("pf:"+sid, now) {
		return false
	}
	return m.path.Allow("path:"+path, now)
}

func benchRequest(i int) (path, sid string) {
	return "/booking/" + strconv.Itoa(i%8), "user-" + strconv.Itoa(i%512)
}

// benchInputs precomputes the rotating request/attribution mix outside
// the measured region, so the benchmarks report the gate's allocations
// and not the harness's string building.
func benchInputs() (reqs []*http.Request, infos []ClientInfo) {
	reqs = make([]*http.Request, 8)
	for i := range reqs {
		path, _ := benchRequest(i)
		reqs[i] = httptest.NewRequest(http.MethodGet, path, nil)
	}
	infos = make([]ClientInfo, 512)
	for i := range infos {
		_, sid := benchRequest(i)
		infos[i] = ClientInfo{IP: "203.0.113.7", ClientKey: sid, Fingerprint: 0xabc, HasFingerprint: true}
	}
	return reqs, infos
}

func BenchmarkGateDecideSharded(b *testing.B) {
	clock := simclock.NewManual(t0)
	g := New(Config{
		Clock:         clock,
		ProfileLimit:  1 << 30,
		ProfileWindow: time.Hour,
		PathLimit:     1 << 30,
		PathWindow:    time.Hour,
	})
	reqs, infos := benchInputs()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			g.decideAt(reqs[i%8], infos[i%512], t0)
			i++
		}
	})
}

// BenchmarkGateDecideResilient is the sharded decide path with every layer
// behind a closed circuit breaker — the PR 3 acceptance benchmark: it must
// report the same allocs/op as BenchmarkGateDecideSharded (the breakers
// ride on preallocated rings and the guard closures stay on the stack).
func BenchmarkGateDecideResilient(b *testing.B) {
	clock := simclock.NewManual(t0)
	g := New(Config{
		Clock:         clock,
		ProfileLimit:  1 << 30,
		ProfileWindow: time.Hour,
		PathLimit:     1 << 30,
		PathWindow:    time.Hour,
		Resilience:    &ResilienceConfig{},
	})
	reqs, infos := benchInputs()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			g.decideAt(reqs[i%8], infos[i%512], t0)
			i++
		}
	})
}

// BenchmarkGateDecideInstrumented is the full admitted-request serving
// path — resilience guards, registry, latency histogram, denial counters
// and the decision-trace ring, driven through the exported Decide (layers
// plus journal, counters and telemetry). The standing acceptance
// criterion: 0 allocs/op.
func BenchmarkGateDecideInstrumented(b *testing.B) {
	clock := simclock.NewManual(t0)
	g := New(Config{
		Clock:         clock,
		ProfileLimit:  1 << 30,
		ProfileWindow: time.Hour,
		PathLimit:     1 << 30,
		PathWindow:    time.Hour,
	}, WithResilience(ResilienceConfig{}),
		WithTelemetry(obs.NewRegistry()),
		WithTraces(obs.NewTraceRing(4096)))
	reqs, infos := benchInputs()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			g.Decide(reqs[i%8], infos[i%512])
			i++
		}
	})
}

// benchBatchGate builds the instrumented gate plus one 64-request batch
// with the same path/client rotation the per-request benchmarks use.
func benchBatchGate() (*Gate, []Request) {
	g := New(Config{
		Clock:         simclock.NewManual(t0),
		ProfileLimit:  1 << 30,
		ProfileWindow: time.Hour,
		PathLimit:     1 << 30,
		PathWindow:    time.Hour,
	}, WithResilience(ResilienceConfig{}),
		WithTelemetry(obs.NewRegistry()),
		WithTraces(obs.NewTraceRing(4096)))
	reqs, infos := benchInputs()
	batch := make([]Request, 64)
	for i := range batch {
		batch[i] = Request{R: reqs[i%8], Info: infos[i%512]}
	}
	return g, batch
}

// BenchmarkGateDecideBatch64 evaluates one 64-request batch per op on the
// fully instrumented gate. Compare against BenchmarkGateDecideSequential64
// (the same 64 requests through per-request Decide): the batch path's
// shared clock read, per-round breaker snapshot and bulk limiter probes
// must keep it ≥25% faster.
func BenchmarkGateDecideBatch64(b *testing.B) {
	g, batch := benchBatchGate()
	out := make([]Decision, len(batch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = g.DecideBatch(batch, out)
	}
}

// BenchmarkGateDecideSequential64 is the batch benchmark's control: the
// identical 64 requests through per-request Decide calls, one op per
// 64-request sweep so the two benchmarks' ns/op are directly comparable.
func BenchmarkGateDecideSequential64(b *testing.B) {
	g, batch := benchBatchGate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			g.Decide(batch[j].R, batch[j].Info)
		}
	}
}

// TestDecideResilientAddsNoAllocs pins the acceptance criterion in a test:
// with all breakers closed, the guarded decide path allocates exactly as
// much as the unguarded one.
func TestDecideResilientAddsNoAllocs(t *testing.T) {
	build := func(rc *ResilienceConfig) *Gate {
		return New(Config{
			Clock:         simclock.NewManual(t0),
			Blocks:        mitigate.NewBlockList(0),
			ProfileLimit:  1 << 30,
			ProfileWindow: time.Hour,
			PathLimit:     1 << 30,
			PathWindow:    time.Hour,
			Resilience:    rc,
		})
	}
	r := httptest.NewRequest(http.MethodGet, "/booking/1", nil)
	info := ClientInfo{IP: "203.0.113.7", ClientKey: "user-1", Fingerprint: 0xabc, HasFingerprint: true}
	measure := func(g *Gate) float64 {
		return testing.AllocsPerRun(512, func() {
			if reason, _, mask := g.decideAt(r, info, t0); reason != "" || mask != 0 {
				t.Fatalf("reason %q mask %d", reason, mask)
			}
		})
	}
	plain := measure(build(nil))
	guarded := measure(build(&ResilienceConfig{}))
	if guarded > plain {
		t.Fatalf("resilient decide allocates %v/op vs %v/op unguarded", guarded, plain)
	}
}

func BenchmarkGateDecideMutexBaseline(b *testing.B) {
	clock := simclock.NewManual(t0)
	m := &mutexGate{
		path:    mitigate.NewKeyedLimiter(time.Hour, 1<<30),
		profile: mitigate.NewKeyedLimiter(time.Hour, 1<<30),
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			path, sid := benchRequest(i)
			m.allow(path, sid, clock.Now())
			i++
		}
	})
}

func BenchmarkGateWrapEndToEnd(b *testing.B) {
	clock := simclock.NewManual(t0)
	g := New(Config{
		Clock:         clock,
		Blocks:        mitigate.NewBlockList(0),
		ProfileLimit:  1 << 30,
		ProfileWindow: time.Hour,
		PathLimit:     1 << 30,
		PathWindow:    time.Hour,
	})
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			path, sid := benchRequest(i)
			r := httptest.NewRequest(http.MethodGet, path, nil)
			r.RemoteAddr = "203.0.113.7:51000"
			r.AddCookie(&http.Cookie{Name: ClientCookie, Value: sid})
			r.Header.Set(FingerprintHeader, "abc")
			h.ServeHTTP(httptest.NewRecorder(), r)
			i++
		}
	})
}
