package resilience

import (
	"errors"
	"time"
)

// ErrTimeout is returned by WithTimeout when the call exceeds its budget.
// The abandoned call keeps running on its goroutine; its eventual result
// is discarded.
var ErrTimeout = errors.New("resilience: call timed out")

// WithTimeout runs fn on its own goroutine and waits at most d for it to
// return. On expiry it returns ErrTimeout and abandons the call — the
// slow layer finishes (or panics, harmlessly recovered) in the background.
// A non-positive d calls fn inline with only panic isolation.
//
// Unlike the breaker this wrapper uses real timers and goroutines: it
// bounds the latency a slow dependency can add to the serving path, which
// a virtual clock cannot express. Allocation cost is one goroutine, one
// channel and one timer per call, so it belongs on layers that do real
// I/O, not on in-process lookups.
func WithTimeout(d time.Duration, fn func() error) error {
	if d <= 0 {
		return Safe(fn)
	}
	done := make(chan error, 1)
	go func() { done <- Safe(fn) }()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		return ErrTimeout
	}
}
