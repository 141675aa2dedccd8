package resilience

import (
	"sync"
	"testing"
	"time"

	"funabuse/internal/simclock"
)

var t0 = time.Date(2022, time.December, 1, 0, 0, 0, 0, time.UTC)

func testBreaker() *Breaker {
	return NewBreaker(BreakerConfig{
		Window:         time.Minute,
		MinSamples:     4,
		OpenFor:        30 * time.Second,
		HalfOpenProbes: 2,
	})
}

func TestBreakerStaysClosedUnderMinSamples(t *testing.T) {
	b := testBreaker()
	clock := simclock.NewManual(t0)
	// Three failures: 100% failure rate but below MinSamples.
	for range 3 {
		if !b.Allow(clock.Now()) {
			t.Fatal("closed breaker rejected a call")
		}
		b.Record(clock.Now(), false)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state %v, want closed under MinSamples", got)
	}
}

func TestBreakerOpensOnFailureRate(t *testing.T) {
	b := testBreaker()
	clock := simclock.NewManual(t0)
	b.Record(clock.Now(), true)
	b.Record(clock.Now(), true)
	b.Record(clock.Now(), false)
	if b.State() != Closed {
		t.Fatal("opened below threshold (2 ok, 1 fail)")
	}
	// Fourth sample: 2/4 failures reaches the 0.5 threshold.
	b.Record(clock.Now(), false)
	if b.State() != Open {
		t.Fatalf("state %v, want open at 50%% failures over MinSamples", b.State())
	}
	if b.Opens() != 1 {
		t.Fatalf("opens %d", b.Opens())
	}
	if b.Allow(clock.Now()) {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}
	if b.ShortCircuits() != 1 {
		t.Fatalf("short circuits %d", b.ShortCircuits())
	}
}

func TestBreakerHalfOpenProbesThenCloses(t *testing.T) {
	b := testBreaker()
	clock := simclock.NewManual(t0)
	for range 4 {
		b.Record(clock.Now(), false)
	}
	if b.State() != Open {
		t.Fatal("not open")
	}
	clock.Advance(30 * time.Second)
	// Cooldown elapsed: exactly HalfOpenProbes probes are admitted.
	if !b.Allow(clock.Now()) {
		t.Fatal("first probe rejected")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if !b.Allow(clock.Now()) {
		t.Fatal("second probe rejected")
	}
	if b.Allow(clock.Now()) {
		t.Fatal("third call admitted beyond the probe quota")
	}
	b.Record(clock.Now(), true)
	b.Record(clock.Now(), true)
	if b.State() != Closed {
		t.Fatalf("state %v, want closed after %d probe successes", b.State(), 2)
	}
	// The failure window was reset on close: old failures cannot re-trip.
	b.Record(clock.Now(), false)
	if b.State() != Closed {
		t.Fatal("stale pre-open failures survived the close")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b := testBreaker()
	clock := simclock.NewManual(t0)
	for range 4 {
		b.Record(clock.Now(), false)
	}
	clock.Advance(30 * time.Second)
	if !b.Allow(clock.Now()) {
		t.Fatal("probe rejected")
	}
	b.Record(clock.Now(), false)
	if b.State() != Open {
		t.Fatalf("state %v, want re-opened", b.State())
	}
	if b.Opens() != 2 {
		t.Fatalf("opens %d, want 2", b.Opens())
	}
	// The cooldown restarts from the re-open instant.
	clock.Advance(29 * time.Second)
	if b.Allow(clock.Now()) {
		t.Fatal("re-opened breaker admitted inside the fresh cooldown")
	}
}

func TestBreakerFailuresAgeOut(t *testing.T) {
	b := testBreaker()
	clock := simclock.NewManual(t0)
	b.Record(clock.Now(), false)
	b.Record(clock.Now(), false)
	b.Record(clock.Now(), false)
	// Old failures slide out of the one-minute window; new traffic is
	// healthy, so one more failure must not trip the breaker.
	clock.Advance(2 * time.Minute)
	b.Record(clock.Now(), true)
	b.Record(clock.Now(), true)
	b.Record(clock.Now(), true)
	b.Record(clock.Now(), false)
	if b.State() != Closed {
		t.Fatalf("state %v: expired failures still count", b.State())
	}
}

func TestBreakerDeterministicTransitions(t *testing.T) {
	// Two breakers fed the same timed outcome sequence must visit the
	// same states — the property the chaos experiment's worker-count
	// golden test rests on.
	run := func() []State {
		b := testBreaker()
		clock := simclock.NewManual(t0)
		var states []State
		for i := range 40 {
			clock.Advance(5 * time.Second)
			now := clock.Now()
			if b.Allow(now) {
				b.Record(now, i%3 == 0) // 2/3 failures
			}
			states = append(states, b.State())
		}
		return states
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("step %d: %v vs %v", i, a[i], bb[i])
		}
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	b := NewBreaker(BreakerConfig{Window: time.Minute, MinSamples: 1 << 30})
	clock := simclock.NewManual(t0)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 1000 {
				now := clock.Now()
				if b.Allow(now) {
					b.Record(now, i%2 == 0)
				}
			}
		}()
	}
	wg.Wait()
	if b.State() != Closed {
		t.Fatalf("state %v", b.State())
	}
}

func TestBreakerStatsSnapshot(t *testing.T) {
	b := NewBreaker(BreakerConfig{MinSamples: 2, OpenFor: time.Minute})

	if b.State() != Closed || b.Opens() != 0 {
		t.Fatalf("fresh breaker %v, %d opens", b.State(), b.Opens())
	}

	// Two failures trip the default 50% rate with MinSamples 2.
	b.Record(t0, false)
	b.Record(t0, false)
	if b.State() != Open || b.Opens() != 1 || b.Transitions() != 1 {
		t.Fatalf("tripped breaker %v, %d opens, %d transitions", b.State(), b.Opens(), b.Transitions())
	}

	if b.Allow(t0.Add(time.Second)) {
		t.Fatal("open breaker allowed a call")
	}
	if b.ShortCircuits() != 1 {
		t.Fatalf("ShortCircuits = %d, want 1", b.ShortCircuits())
	}
}
