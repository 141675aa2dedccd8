// Package resilience supplies the availability patterns the defence
// pipeline runs behind: a three-state circuit breaker over sliding
// failure-rate rings, retry with jittered exponential backoff, and panic
// isolation for operator-supplied hooks.
//
// The paper's operational lesson is that each defence layer's availability
// is itself a fraud surface: a rate limit that silently fails re-opens the
// abuse window it closed (the Airline D pump was caught by the one
// path-level limit that existed), while a layer that fails closed turns an
// internal outage into a customer-facing one. The primitives here make
// that trade-off explicit — every guarded layer declares a Policy for what
// its absence means — and keep it observable, so degraded decisions are
// counted rather than silent.
//
// Determinism: the breaker reads time through simclock.Clock and the retry
// jitter draws from a caller-seeded simrand stream, so every state
// transition and backoff sequence replays bit-identically in simulation.
package resilience

import "fmt"

// Policy declares what a guarded layer's unavailability means for the
// request it was guarding.
//
// The zero value is FailOpen: availability first, the layer's protection
// is forfeited while it is down. FailClosed denies the request instead:
// protection first, honest traffic pays for the outage. Per-layer guidance
// lives in DESIGN.md — blocklists and challenges usually fail open (their
// false-positive cost is high and other layers still stand), while
// resource limits guarding direct spend (premium SMS) are the canonical
// fail-closed layer.
type Policy int

const (
	// FailOpen skips the unavailable layer and lets the request proceed
	// to the remaining layers.
	FailOpen Policy = iota
	// FailClosed denies the request while the layer is unavailable.
	FailClosed
)

// String names the policy.
func (p Policy) String() string {
	if p == FailClosed {
		return "fail-closed"
	}
	return "fail-open"
}

// PanicError wraps a recovered panic value so hook panics flow through the
// same error path as ordinary failures.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
}

// Error renders the panic value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("resilience: recovered panic: %v", e.Value)
}

// Safe invokes fn, converting a panic into a *PanicError instead of
// unwinding the caller's goroutine. It is the adapter that keeps a
// misbehaving operator hook (challenge verifier, decision journal) from
// taking down the serving goroutine.
func Safe(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p}
		}
	}()
	return fn()
}
