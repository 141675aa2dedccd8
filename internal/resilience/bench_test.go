package resilience

import (
	"errors"
	"testing"
	"time"

	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

// The breaker's closed-state Allow+Record pair is on the gate's admit path
// for every guarded layer, so it must stay allocation-free.

func BenchmarkBreakerClosedAllowRecord(b *testing.B) {
	br := NewBreaker(BreakerConfig{Window: time.Minute})
	clock := simclock.NewManual(time.Date(2022, 12, 1, 0, 0, 0, 0, time.UTC))
	now := clock.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if br.Allow(now) {
			br.Record(now, true)
		}
	}
}

func BenchmarkBreakerOpenShortCircuit(b *testing.B) {
	br := NewBreaker(BreakerConfig{Window: time.Minute, MinSamples: 1})
	clock := simclock.NewManual(time.Date(2022, 12, 1, 0, 0, 0, 0, time.UTC))
	br.Record(clock.Now(), false)
	now := clock.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		br.Allow(now)
	}
}

func BenchmarkBreakerClosedParallel(b *testing.B) {
	br := NewBreaker(BreakerConfig{Window: time.Minute})
	clock := simclock.NewManual(time.Date(2022, 12, 1, 0, 0, 0, 0, time.UTC))
	now := clock.Now()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if br.Allow(now) {
				br.Record(now, true)
			}
		}
	})
}

func BenchmarkRetryFirstAttemptSucceeds(b *testing.B) {
	rng := simrand.New(1)
	sleep := func(time.Duration) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Retry(RetryConfig{}, sleep, rng, func() error { return nil })
	}
}

func BenchmarkRetryAllAttemptsFail(b *testing.B) {
	rng := simrand.New(1)
	sleep := func(time.Duration) {}
	boom := errors.New("down")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Retry(RetryConfig{Attempts: 3}, sleep, rng, func() error { return boom })
	}
}
