package signal

import "time"

// RateWindow tracks a success/failure outcome rate over the trailing
// window using a pair of bucket rings. It is the observation substrate the
// resilience circuit breaker trips on: constant memory regardless of call
// rate, expiry within one bucket width of the exact window edge, and no
// allocation per observation.
//
// RateWindow is not safe for concurrent use; callers lock around it the
// way Limiter shards lock around Window.
type RateWindow struct {
	ok   *Window
	fail *Window
}

// NewRateWindow returns a rate tracker over the trailing window split into
// the given number of ring buckets; non-positive arguments fall back to
// Window's defaults.
func NewRateWindow(window time.Duration, buckets int) *RateWindow {
	return &RateWindow{
		ok:   NewWindow(window, buckets),
		fail: NewWindow(window, buckets),
	}
}

// Observe folds one outcome at the given instant into the rings.
func (r *RateWindow) Observe(now time.Time, ok bool) {
	if ok {
		r.ok.Add(now, 1)
		return
	}
	r.fail.Add(now, 1)
}

// Total returns how many outcomes are within the window as of now.
func (r *RateWindow) Total(now time.Time) int {
	return r.ok.Count(now) + r.fail.Count(now)
}

// FailureRate returns the in-window failure fraction as of now, or 0 when
// the window holds no outcomes.
func (r *RateWindow) FailureRate(now time.Time) float64 {
	fails := r.fail.Count(now)
	total := r.ok.Count(now) + fails
	if total == 0 {
		return 0
	}
	return float64(fails) / float64(total)
}

// Reset clears both rings.
func (r *RateWindow) Reset() {
	r.ok.Reset()
	r.fail.Reset()
}
