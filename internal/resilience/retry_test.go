package resilience

import (
	"errors"
	"testing"
	"time"

	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

// manualSleeper advances a Manual clock instead of blocking, recording the
// requested delays.
type manualSleeper struct {
	clock *simclock.Manual
	slept []time.Duration
}

func (s *manualSleeper) sleep(d time.Duration) {
	s.slept = append(s.slept, d)
	s.clock.Advance(d)
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	clock := simclock.NewManual(t0)
	sl := &manualSleeper{clock: clock}
	calls := 0
	err := Retry(RetryConfig{Attempts: 5, BaseDelay: 10 * time.Millisecond, ExactDelays: true},
		clock, sl.sleep, simrand.New(1), func() error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls %d", calls)
	}
	// Exact exponential schedule: 10ms then 20ms.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(sl.slept) != len(want) || sl.slept[0] != want[0] || sl.slept[1] != want[1] {
		t.Fatalf("slept %v, want %v", sl.slept, want)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	clock := simclock.NewManual(t0)
	sl := &manualSleeper{clock: clock}
	boom := errors.New("boom")
	calls := 0
	err := Retry(RetryConfig{Attempts: 3, ExactDelays: true}, clock, sl.sleep, nil, func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if calls != 3 || len(sl.slept) != 2 {
		t.Fatalf("calls %d slept %d", calls, len(sl.slept))
	}
}

func TestRetryDelayCappedAtMax(t *testing.T) {
	clock := simclock.NewManual(t0)
	sl := &manualSleeper{clock: clock}
	_ = Retry(RetryConfig{
		Attempts: 6, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 25 * time.Millisecond, ExactDelays: true,
	}, clock, sl.sleep, nil, func() error { return errors.New("x") })
	for i, d := range sl.slept {
		if d > 25*time.Millisecond {
			t.Fatalf("sleep %d = %v exceeds MaxDelay", i, d)
		}
	}
	if last := sl.slept[len(sl.slept)-1]; last != 25*time.Millisecond {
		t.Fatalf("last sleep %v, want the cap", last)
	}
}

func TestRetryBudgetAbandons(t *testing.T) {
	clock := simclock.NewManual(t0)
	sl := &manualSleeper{clock: clock}
	calls := 0
	err := Retry(RetryConfig{
		Attempts: 10, BaseDelay: 40 * time.Millisecond,
		Budget: 100 * time.Millisecond, ExactDelays: true,
	}, clock, sl.sleep, nil, func() error {
		calls++
		return errors.New("down")
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err %v, want budget exhaustion", err)
	}
	// 40ms + 80ms would cross the 100ms budget: two calls, one sleep.
	if calls != 2 || len(sl.slept) != 1 {
		t.Fatalf("calls %d slept %d", calls, len(sl.slept))
	}
}

func TestRetryJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		clock := simclock.NewManual(t0)
		sl := &manualSleeper{clock: clock}
		_ = Retry(RetryConfig{Attempts: 4, BaseDelay: 100 * time.Millisecond, Jitter: 0.5},
			clock, sl.sleep, simrand.New(seed), func() error { return errors.New("x") })
		return sl.slept
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
	// Jitter only shortens: every delay within [d/2, d].
	base := 100 * time.Millisecond
	for i, d := range a {
		if d > base || d < base/2 {
			t.Fatalf("sleep %d = %v outside [%v, %v]", i, d, base/2, base)
		}
		base *= 2
	}
	if c := run(8); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatal("different seeds produced an identical jitter sequence")
	}
}

func TestRetryRecoversPanics(t *testing.T) {
	clock := simclock.NewManual(t0)
	sl := &manualSleeper{clock: clock}
	calls := 0
	err := Retry(RetryConfig{Attempts: 2, ExactDelays: true}, clock, sl.sleep, nil, func() error {
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
