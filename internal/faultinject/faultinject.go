// Package faultinject produces deterministic faults for chaos-testing the
// defence pipeline: injected errors, panics, latency, and time-keyed flap
// schedules under which a layer is hard-down for recurring windows.
//
// Everything is reproducible by construction. Probabilistic faults draw
// from a simrand stream seeded by the caller, so a single-threaded replay
// injects the identical fault sequence for a given seed; flap schedules
// are pure functions of the (virtual) clock, so even concurrent clients
// observe the same outage windows when driven by a shared simclock. The
// same wrappers serve tests, the -race chaos suite, and the cmd/figures
// -exp chaos experiment.
package faultinject

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"funabuse/internal/simrand"
)

// ErrInjected is the error every injected failure wraps.
var ErrInjected = errors.New("faultinject: injected fault")

// Schedule is a deterministic flap plan: starting at Start, the target is
// down for the first Down of every Period, repeating. It is a pure
// function of time, which is what makes chaos runs identical across
// worker counts — no draw order is involved.
type Schedule struct {
	// Start anchors the first outage; instants before Start are up.
	Start time.Time
	// Period is the repeat interval; non-positive disables the schedule.
	Period time.Duration
	// Down is the outage span at the head of each period, clamped to
	// Period.
	Down time.Duration
}

// DownAt reports whether the target is down at t.
func (s Schedule) DownAt(t time.Time) bool {
	if s.Period <= 0 || s.Down <= 0 || t.Before(s.Start) {
		return false
	}
	off := t.Sub(s.Start) % s.Period
	down := s.Down
	if down > s.Period {
		down = s.Period
	}
	return off < down
}

// Config tunes an Injector. All faults are off by default; rates are
// probabilities in [0,1] evaluated independently per call.
type Config struct {
	// Seed seeds the per-call fault stream; 0 is a valid (fixed) seed.
	Seed uint64
	// ErrorRate injects ErrInjected with this probability.
	ErrorRate float64
	// PanicRate panics with this probability (evaluated after ErrorRate).
	PanicRate float64
	// LatencyRate stalls the call via Sleep with this probability.
	LatencyRate float64
	// Latency is the injected stall span.
	Latency time.Duration
	// Sleep performs the stall; nil means time.Sleep. Simulations pass a
	// virtual-clock advance (or a no-op recorder) instead.
	Sleep func(time.Duration)
	// Schedule, when set, makes every call during a down-window fail with
	// ErrInjected before any probabilistic draw — a hard outage.
	Schedule Schedule
}

// Injector decides, per call, whether to misbehave. It is safe for
// concurrent use; the probabilistic stream is serialised under a mutex, so
// concurrent callers see a deterministic multiset of faults (the total
// injected counts are exact) even though their interleaving is not.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *simrand.RNG

	errors  atomic.Uint64
	panics  atomic.Uint64
	stalls  atomic.Uint64
	outages atomic.Uint64
	calls   atomic.Uint64
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Injector{cfg: cfg, rng: simrand.New(cfg.Seed)}
}

// Hit evaluates the fault plan for one call at now: it may stall, panic,
// or return an injected error; otherwise it returns nil and the caller
// proceeds with the real work.
func (i *Injector) Hit(now time.Time) error {
	i.calls.Add(1)
	if i.cfg.Schedule.DownAt(now) {
		i.outages.Add(1)
		return ErrInjected
	}
	if i.cfg.ErrorRate <= 0 && i.cfg.PanicRate <= 0 && i.cfg.LatencyRate <= 0 {
		return nil
	}
	i.mu.Lock()
	injectErr := i.rng.Bool(i.cfg.ErrorRate)
	injectPanic := !injectErr && i.rng.Bool(i.cfg.PanicRate)
	injectStall := i.rng.Bool(i.cfg.LatencyRate)
	i.mu.Unlock()
	if injectStall {
		i.stalls.Add(1)
		i.cfg.Sleep(i.cfg.Latency)
	}
	if injectErr {
		i.errors.Add(1)
		return ErrInjected
	}
	if injectPanic {
		i.panics.Add(1)
		panic(ErrInjected)
	}
	return nil
}

// Calls returns how many calls the injector evaluated.
func (i *Injector) Calls() uint64 { return i.calls.Load() }

// Errors returns how many probabilistic errors were injected.
func (i *Injector) Errors() uint64 { return i.errors.Load() }

// Panics returns how many panics were injected.
func (i *Injector) Panics() uint64 { return i.panics.Load() }

// Stalls returns how many latency injections fired.
func (i *Injector) Stalls() uint64 { return i.stalls.Load() }

// Outages returns how many calls landed in schedule down-windows.
func (i *Injector) Outages() uint64 { return i.outages.Load() }

// WrapErr decorates a fallible keyed check, preserving inner errors when
// no fault fires first.
func (i *Injector) WrapErr(inner func(key string, now time.Time) (bool, error)) func(key string, now time.Time) (bool, error) {
	return func(key string, now time.Time) (bool, error) {
		if err := i.Hit(now); err != nil {
			return false, err
		}
		return inner(key, now)
	}
}
