package resilience

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"funabuse/internal/signal"
)

// State is a circuit breaker's position.
type State int32

const (
	// Closed passes calls through while recording outcomes.
	Closed State = iota
	// Open short-circuits every call until the cooldown elapses.
	Open
	// HalfOpen admits a bounded number of probe calls; their outcomes
	// decide between re-opening and closing.
	HalfOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// ErrOpen is returned by Do when the breaker short-circuits a call.
var ErrOpen = errors.New("resilience: breaker open")

// BreakerConfig tunes a Breaker; the zero value of every field selects a
// sensible default.
type BreakerConfig struct {
	// Window is the sliding failure-rate window, counted on a ring of
	// breakerBuckets buckets; non-positive means 30s.
	Window time.Duration
	// MinSamples is how many in-window outcomes must exist before the
	// failure rate can trip the breaker; non-positive means 10. It keeps a
	// single failure on an idle layer from opening the circuit.
	MinSamples int
	// OpenFor is the cooldown before an open breaker admits probes;
	// non-positive means Window.
	OpenFor time.Duration
	// HalfOpenProbes is how many consecutive probe successes close the
	// breaker (and how many probes may be admitted per half-open episode);
	// non-positive means 3.
	HalfOpenProbes int
}

// breakerBuckets is the failure-rate ring's granularity.
const breakerBuckets = 8

// tripRate is the in-window failure fraction that trips the breaker: half
// the outcomes.
const tripRate = 0.5

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.OpenFor <= 0 {
		c.OpenFor = c.Window
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 3
	}
	return c
}

// Breaker is a three-state circuit breaker: Closed while the guarded
// layer's in-window failure rate stays under one half, Open for a
// cooldown once it trips, then HalfOpen to probe recovery. Outcomes are
// counted on signal bucket rings, so observation is constant-memory and
// allocation-free, and time arrives as an argument, so a simclock-driven
// test replays every transition deterministically.
//
// The intended call shape is Allow then Record:
//
//	if !b.Allow(now) { /* short-circuit: apply the layer's Policy */ }
//	ok := layer()
//	b.Record(now, ok)
//
// Breaker is safe for concurrent use. Allow in the half-open state admits
// at most HalfOpenProbes calls per episode; callers that Allow without a
// matching Record consume probe slots until the next transition.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	rate     *signal.RateWindow
	openedAt time.Time
	// Half-open probe accounting, reset on each transition into HalfOpen.
	probesIssued int
	probeOKs     int

	opens       atomic.Uint64
	transitions atomic.Uint64
	shortCircs  atomic.Uint64
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{
		cfg:  cfg,
		rate: signal.NewRateWindow(cfg.Window, breakerBuckets),
	}
}

// Allow reports whether a call may proceed at now. In the open state it
// returns false until the cooldown elapses, then transitions to half-open
// and admits up to HalfOpenProbes probe calls.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	switch b.state {
	case Closed:
		b.mu.Unlock()
		return true
	case Open:
		if now.Sub(b.openedAt) < b.cfg.OpenFor {
			b.mu.Unlock()
			b.shortCircs.Add(1)
			return false
		}
		b.toHalfOpenLocked()
		fallthrough
	default: // HalfOpen
		if b.probesIssued >= b.cfg.HalfOpenProbes {
			b.mu.Unlock()
			b.shortCircs.Add(1)
			return false
		}
		b.probesIssued++
		b.mu.Unlock()
		return true
	}
}

// Record folds one call outcome at now into the breaker. In the closed
// state a failure that brings the in-window rate to one half (with
// at least MinSamples outcomes) opens the circuit; in the half-open state
// any failure re-opens it and HalfOpenProbes successes close it.
func (b *Breaker) Record(now time.Time, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.rate.Observe(now, ok)
		if !ok && b.rate.Total(now) >= b.cfg.MinSamples &&
			b.rate.FailureRate(now) >= tripRate {
			b.toOpenLocked(now)
		}
	case HalfOpen:
		if !ok {
			b.toOpenLocked(now)
			return
		}
		b.probeOKs++
		if b.probeOKs >= b.cfg.HalfOpenProbes {
			b.toClosedLocked()
		}
	case Open:
		// A straggler from before the trip; the window absorbs it.
		b.rate.Observe(now, ok)
	}
}

func (b *Breaker) toOpenLocked(now time.Time) {
	b.state = Open
	b.openedAt = now
	b.opens.Add(1)
	b.transitions.Add(1)
}

func (b *Breaker) toHalfOpenLocked() {
	b.state = HalfOpen
	b.probesIssued = 0
	b.probeOKs = 0
	b.transitions.Add(1)
}

func (b *Breaker) toClosedLocked() {
	b.state = Closed
	b.rate.Reset()
	b.transitions.Add(1)
}

// State returns the breaker's current position without advancing time:
// an expired cooldown is only acted on by the next Allow.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker tripped open.
func (b *Breaker) Opens() uint64 { return b.opens.Load() }

// Transitions returns how many state changes occurred in total.
func (b *Breaker) Transitions() uint64 { return b.transitions.Load() }

// ShortCircuits returns how many calls Allow rejected.
func (b *Breaker) ShortCircuits() uint64 { return b.shortCircs.Load() }
