package resilience

import (
	"errors"
	"testing"
	"time"

	"funabuse/internal/simrand"
)

// recorder collects the requested backoffs instead of sleeping.
type recorder struct{ slept []time.Duration }

func (r *recorder) sleep(d time.Duration) { r.slept = append(r.slept, d) }

// checkSchedule fails unless every wait lies in the jitter band of the
// doubling schedule [d*(1-retryJitter), d], with d capped at retryMaxDelay.
func checkSchedule(t *testing.T, slept []time.Duration) {
	t.Helper()
	d := retryBaseDelay
	for i, got := range slept {
		if lo := d - time.Duration(retryJitter*float64(d)); got < lo || got > d {
			t.Fatalf("sleep %d = %v outside [%v, %v]", i, got, lo, d)
		}
		d = min(2*d, retryMaxDelay)
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	rec := &recorder{}
	calls := 0
	err := Retry(RetryConfig{Attempts: 5}, rec.sleep, simrand.New(1), func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(rec.slept) != 2 {
		t.Fatalf("calls %d slept %v", calls, rec.slept)
	}
	checkSchedule(t, rec.slept)
}

func TestRetryExhaustsAttempts(t *testing.T) {
	rec := &recorder{}
	boom := errors.New("boom")
	calls := 0
	err := Retry(RetryConfig{Attempts: 3}, rec.sleep, nil, func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if calls != 3 || len(rec.slept) != 2 {
		t.Fatalf("calls %d slept %d", calls, len(rec.slept))
	}
}

func TestRetryDelayCappedAtMax(t *testing.T) {
	rec := &recorder{}
	_ = Retry(RetryConfig{Attempts: 12}, rec.sleep, simrand.New(3), func() error { return errors.New("x") })
	if len(rec.slept) != 11 {
		t.Fatalf("slept %d times, want 11", len(rec.slept))
	}
	checkSchedule(t, rec.slept)
	// 10ms doubles past the 1s cap after seven waits; the rest hold there.
	for i, d := range rec.slept[7:] {
		if d < retryMaxDelay/2 {
			t.Fatalf("sleep %d = %v: the backoff fell below the capped band", 7+i, d)
		}
	}
}

func TestRetryJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		rec := &recorder{}
		_ = Retry(RetryConfig{Attempts: 4}, rec.sleep, simrand.New(seed), func() error { return errors.New("x") })
		return rec.slept
	}
	a, b := run(7), run(7)
	if len(a) != 3 {
		t.Fatalf("sleeps %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sleep %d: %v vs %v — jitter not seed-deterministic", i, a[i], b[i])
		}
	}
	checkSchedule(t, a)
	if c := run(8); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatal("different seeds produced an identical jitter sequence")
	}
}

func TestRetryRecoversPanics(t *testing.T) {
	rec := &recorder{}
	calls := 0
	err := Retry(RetryConfig{Attempts: 2}, rec.sleep, nil, func() error {
		calls++
		panic("flaky hook")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v, want PanicError", err)
	}
	if calls != 2 {
		t.Fatalf("calls %d: panic aborted the retry loop", calls)
	}
}
