package resilience

import (
	"fmt"
	"time"

	"funabuse/internal/simrand"
)

// RetryConfig tunes Retry.
type RetryConfig struct {
	// Attempts is the maximum number of calls including the first;
	// non-positive means 3.
	Attempts int
}

// The backoff schedule: the first retry waits retryBaseDelay, each further
// one doubles the wait up to retryMaxDelay, and every wait is shortened by
// a uniform draw of up to retryJitter of itself.
const (
	retryBaseDelay = 10 * time.Millisecond
	retryMaxDelay  = time.Second
	retryJitter    = 0.5
)

// Retry invokes fn up to cfg.Attempts times with jittered exponential
// backoff between attempts, stopping early on success. Panics in fn are
// recovered into *PanicError and treated as failed attempts.
//
// Waits go through sleep, so a simulation can pass a no-op or a
// virtual-clock advance to replay the exact schedule; nil means
// time.Sleep. Jitter draws from rng (nil means an unseeded stream — pass a
// derived stream for reproducibility).
func Retry(cfg RetryConfig, sleep func(time.Duration), rng *simrand.RNG, fn func() error) error {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	if rng == nil {
		rng = simrand.New(0)
	}

	delay := retryBaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		if err = Safe(fn); err == nil {
			return nil
		}
		if attempt >= cfg.Attempts {
			return fmt.Errorf("resilience: %d attempts: %w", attempt, err)
		}
		// Uniform in [d*(1-retryJitter), d]: jitter only ever shortens the
		// wait, so the unjittered schedule is also the worst case.
		sleep(delay - time.Duration(retryJitter*rng.Float64()*float64(delay)))
		delay = min(2*delay, retryMaxDelay)
	}
}
