package resilience

import (
	"errors"
	"testing"
	"time"
)

func TestBreakerStatsSnapshot(t *testing.T) {
	t0 := time.Date(2022, time.December, 1, 0, 0, 0, 0, time.UTC)
	b := NewBreaker(BreakerConfig{MinSamples: 2, OpenFor: time.Minute})

	if st := b.Stats(); st.State != Closed || st.Opens != 0 {
		t.Fatalf("fresh breaker stats = %+v", st)
	}

	// Two failures trip the default 50% rate with MinSamples 2.
	b.Record(t0, false)
	b.Record(t0, false)
	st := b.Stats()
	if st.State != Open || st.Opens != 1 || st.Transitions != 1 {
		t.Fatalf("tripped breaker stats = %+v", st)
	}

	if b.Allow(t0.Add(time.Second)) {
		t.Fatal("open breaker allowed a call")
	}
	if st := b.Stats(); st.ShortCircuits != 1 {
		t.Fatalf("ShortCircuits = %d, want 1", st.ShortCircuits)
	}
}

func TestBreakerCollectorEncodesState(t *testing.T) {
	t0 := time.Date(2022, time.December, 1, 0, 0, 0, 0, time.UTC)
	b := NewBreaker(BreakerConfig{MinSamples: 1})
	_ = b.Do(t0, func() error { return errors.New("boom") })

	samples := b.Collector("challenge").Collect(nil)
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] = s.Value
		if len(s.Labels) != 1 || s.Labels[0].Value != "challenge" {
			t.Fatalf("sample %s labels = %+v", s.Name, s.Labels)
		}
	}
	if byName["breaker_state"] != float64(Open) {
		t.Fatalf("breaker_state = %v, want %v (open)", byName["breaker_state"], float64(Open))
	}
	if byName["breaker_opens_total"] != 1 {
		t.Fatalf("breaker_opens_total = %v, want 1", byName["breaker_opens_total"])
	}
}
