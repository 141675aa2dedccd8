package httpgate

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funabuse/internal/faultinject"
	"funabuse/internal/mitigate"
	"funabuse/internal/resilience"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

// chaosGate is the concurrent-test fixture: unlike env its handler is
// goroutine-safe, and unlike concurrentGate it exposes the virtual clock so
// flap schedules can be stepped between phases.
func chaosGate(mut func(*Config)) (*Gate, http.Handler, *simclock.Manual) {
	clock := simclock.NewManual(t0)
	cfg := Config{Clock: clock, Blocks: mitigate.NewBlockList(0)}
	if mut != nil {
		mut(&cfg)
	}
	g := New(cfg)
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	return g, h, clock
}

// chaosFire drives workers*per concurrent requests through the handler and
// returns how many were admitted (200) and denied (anything else).
func chaosFire(h http.Handler, workers, per int) (admitted, denied int) {
	results := make([]int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ok := 0
			for i := range per {
				if fire(h, "/booking/1", "sid-"+string(rune('a'+w))+"-", uint64(w*per+i)) == http.StatusOK {
					ok++
				}
			}
			results[w] = ok
		}(w)
	}
	wg.Wait()
	for _, ok := range results {
		admitted += ok
	}
	return admitted, workers*per - admitted
}

// TestGateChaosFlappingLimiterExactCounts runs concurrent clients through a
// gate whose resource limiter flaps on a deterministic schedule. Because the
// outage is a pure function of the shared virtual clock, every counter is
// exact regardless of goroutine interleaving, under both fail policies.
func TestGateChaosFlappingLimiterExactCounts(t *testing.T) {
	const workers, per = 8, 50
	const phase = workers * per
	downAt := t0.Add(10 * time.Minute)

	cases := []struct {
		policy       resilience.Policy
		downAdmitted int
	}{
		{resilience.FailOpen, phase},
		{resilience.FailClosed, 0},
	}
	for _, tc := range cases {
		inj := faultinject.New(faultinject.Config{
			Schedule: faultinject.Schedule{Start: downAt, Period: 1000 * time.Hour, Down: time.Hour},
		})
		gate, server, clock := chaosGate(func(c *Config) {
			withResourceCheck(c, inj.WrapErr(func(key string, now time.Time) (bool, error) { return true, nil }))
			c.Resilience = &ResilienceConfig{
				Breaker: resilience.BreakerConfig{
					Window:         time.Minute,
					MinSamples:     8,
					FailureRate:    0.5,
					OpenFor:        30 * time.Second,
					HalfOpenProbes: 3,
				},
				Resource: tc.policy,
			}
		})
		br := gate.Breaker(LayerResource)

		// Phase 1: healthy concurrent traffic.
		adm, den := chaosFire(server, workers, per)
		if adm != phase || den != 0 {
			t.Fatalf("%v healthy: admitted %d denied %d", tc.policy, adm, den)
		}
		if got := gateStat(t, gate, MetricDegraded); got != 0 || br.State() != resilience.Closed {
			t.Fatalf("%v healthy: degraded %d state %v", tc.policy, got, br.State())
		}

		// Phase 2: the limiter is down for every request; the policy decides
		// each verdict, the breaker trips exactly once.
		clock.SetAt(downAt)
		adm, den = chaosFire(server, workers, per)
		if adm != tc.downAdmitted || den != phase-tc.downAdmitted {
			t.Fatalf("%v outage: admitted %d denied %d", tc.policy, adm, den)
		}
		if got := gateStat(t, gate, MetricDegraded); got != phase {
			t.Fatalf("%v outage: degraded %d, want %d", tc.policy, got, phase)
		}
		if br.State() != resilience.Open || br.Opens() != 1 {
			t.Fatalf("%v outage: state %v opens %d", tc.policy, br.State(), br.Opens())
		}

		// Phase 3: serial recovery — past the outage and the cooldown, the
		// probe quota closes the breaker deterministically.
		clock.SetAt(downAt.Add(time.Hour + time.Second))
		for range 3 {
			if got := fire(server, "/booking/1", "probe", 1); got != http.StatusOK {
				t.Fatalf("%v probe: status %d", tc.policy, got)
			}
		}
		if br.State() != resilience.Closed {
			t.Fatalf("%v recovery: state %v", tc.policy, br.State())
		}
		// closed->open, open->half-open, half-open->closed.
		if br.Transitions() != 3 {
			t.Fatalf("%v recovery: transitions %d", tc.policy, br.Transitions())
		}

		// Phase 4: healthy concurrent traffic again, no new degradation.
		degradedBefore := gateStat(t, gate, MetricDegraded)
		adm, den = chaosFire(server, workers, per)
		if adm != phase || den != 0 {
			t.Fatalf("%v recovered: admitted %d denied %d", tc.policy, adm, den)
		}
		if got := gateStat(t, gate, MetricDegraded); got != degradedBefore {
			t.Fatalf("%v recovered: degraded %d -> %d", tc.policy, degradedBefore, got)
		}
	}
}

// seededFaults is a resource check that fails with probability rate,
// drawn from one seeded stream under a mutex: concurrent callers see a
// racy interleaving but a fixed multiset of failures.
type seededFaults struct {
	mu     sync.Mutex
	rng    *simrand.RNG
	rate   float64
	errors atomic.Uint64
}

func (f *seededFaults) check(string, time.Time) (bool, error) {
	f.mu.Lock()
	hit := f.rng.Bool(f.rate)
	f.mu.Unlock()
	if hit {
		f.errors.Add(1)
		return false, errLayerDown
	}
	return true, nil
}

// TestGateChaosSeededErrorsExactMultiset injects seed-driven probabilistic
// faults into the resource layer under concurrent load. The interleaving is
// racy but the fault multiset is not: the gate's degraded tally equals the
// fault source's count, which matches a serial run on the same seed.
func TestGateChaosSeededErrorsExactMultiset(t *testing.T) {
	const workers, per, seed = 8, 100, 77
	build := func() (*seededFaults, *Gate, http.Handler) {
		faults := &seededFaults{rng: simrand.New(seed), rate: 0.2}
		gate, server, _ := chaosGate(func(c *Config) {
			withResourceCheck(c, faults.check)
			// MinSamples above the request volume keeps the breaker closed,
			// so no call is ever short-circuited and every injected error
			// surfaces as one degraded decision.
			c.Resilience = &ResilienceConfig{
				Breaker: resilience.BreakerConfig{MinSamples: 10 * workers * per},
			}
		})
		return faults, gate, server
	}

	faults, gate, server := build()
	adm, den := chaosFire(server, workers, per)
	if adm != workers*per || den != 0 {
		t.Fatalf("admitted %d denied %d under fail-open faults", adm, den)
	}
	injected := faults.errors.Load()
	if got := gateStat(t, gate, MetricDegraded); got != injected {
		t.Fatalf("gate degraded %d, injected errors %d", got, injected)
	}
	if got := gateStat(t, gate, MetricLayerErrors, layerLabel(LayerResource)); got != injected {
		t.Fatalf("layer errors %d, injected %d", got, injected)
	}

	serial, _, serialServer := build()
	for range workers * per {
		fire(serialServer, "/booking/1", "s", 1)
	}
	if got := serial.errors.Load(); got != injected || got == 0 {
		t.Fatalf("serial injected %d, concurrent %d", got, injected)
	}
}
