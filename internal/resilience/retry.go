package resilience

import (
	"errors"
	"fmt"
	"time"

	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

// ErrBudgetExhausted marks a retry sequence abandoned because the next
// backoff would overrun the deadline budget; it wraps the last attempt's
// error.
var ErrBudgetExhausted = errors.New("resilience: retry budget exhausted")

// RetryConfig tunes Retry; the zero value of every field selects a
// sensible default.
type RetryConfig struct {
	// Attempts is the maximum number of calls including the first;
	// non-positive means 3.
	Attempts int
	// BaseDelay is the backoff before the second attempt; non-positive
	// means 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff; non-positive means 1s.
	MaxDelay time.Duration
	// Multiplier grows the backoff per attempt; values <= 1 mean 2.
	Multiplier float64
	// Jitter is the fraction of each delay randomised, in (0,1]: the
	// slept delay is uniform in [d*(1-Jitter), d]. Zero or out-of-range
	// selects the default 0.5; set ExactDelays to disable jitter.
	Jitter float64
	// ExactDelays disables jitter entirely (for tests that assert the
	// deterministic schedule shape).
	ExactDelays bool
	// Budget bounds the total elapsed time across attempts and backoffs,
	// measured on the caller's clock; zero means no budget. A retry whose
	// backoff would cross the budget is abandoned with ErrBudgetExhausted.
	Budget time.Duration
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 10 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = time.Second
	}
	if c.Multiplier <= 1 {
		c.Multiplier = 2
	}
	if c.Jitter < 0 || c.Jitter > 1 || c.Jitter == 0 {
		c.Jitter = 0.5
	}
	if c.ExactDelays {
		c.Jitter = 0
	}
	return c
}

// Retry invokes fn up to cfg.Attempts times with jittered exponential
// backoff between attempts, stopping early on success or when the deadline
// budget would be overrun. Panics in fn are recovered into *PanicError and
// treated as failed attempts.
//
// Time is read from clock and waits go through sleep, so a simulation can
// pass a simclock.Manual and an Advance-backed sleeper to replay the exact
// schedule; nil defaults are the real clock and time.Sleep. Jitter draws
// from rng (nil means an unseeded stream — pass a derived stream for
// reproducibility).
func Retry(cfg RetryConfig, clock simclock.Clock, sleep func(time.Duration), rng *simrand.RNG, fn func() error) error {
	cfg = cfg.withDefaults()
	if clock == nil {
		clock = simclock.Real{}
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	if rng == nil {
		rng = simrand.New(0)
	}

	start := clock.Now()
	delay := cfg.BaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		if err = Safe(fn); err == nil {
			return nil
		}
		if attempt >= cfg.Attempts {
			return fmt.Errorf("resilience: %d attempts: %w", attempt, err)
		}
		d := delay
		if cfg.Jitter > 0 {
			// Uniform in [d*(1-Jitter), d]: jitter only ever shortens the
			// wait, so the deterministic schedule is also the worst case.
			d = d - time.Duration(cfg.Jitter*rng.Float64()*float64(d))
		}
		if cfg.Budget > 0 && clock.Now().Add(d).Sub(start) > cfg.Budget {
			return fmt.Errorf("%w after %d attempts: %w", ErrBudgetExhausted, attempt, err)
		}
		sleep(d)
		delay = time.Duration(float64(delay) * cfg.Multiplier)
		if delay > cfg.MaxDelay {
			delay = cfg.MaxDelay
		}
	}
}
