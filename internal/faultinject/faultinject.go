// Package faultinject produces deterministic faults for chaos-testing the
// defence pipeline: time-keyed flap schedules under which a layer is
// hard-down for recurring windows.
//
// Everything is reproducible by construction: a schedule is a pure
// function of the (virtual) clock, so even concurrent clients observe the
// same outage windows when driven by a shared simclock. The same wrapper
// serves tests, the -race chaos suite, and the cmd/figures -exp chaos
// experiment.
package faultinject

import (
	"errors"
	"sync/atomic"
	"time"
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

// Config tunes an Injector.
type Config struct {
	// Schedule, when set, makes every call during a down-window fail with
	// ErrInjected — a hard outage.
	Schedule Schedule
}

// Injector decides, per call, whether to misbehave. It is safe for
// concurrent use: the verdict is a pure function of the call's time, and
// the counters are atomics.
type Injector struct {
	cfg Config

	outages atomic.Uint64
	calls   atomic.Uint64
}

// New returns an injector for cfg.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Hit evaluates the fault plan for one call at now: it returns an
// injected error inside a down-window; otherwise nil, and the caller
// proceeds with the real work.
func (i *Injector) Hit(now time.Time) error {
	i.calls.Add(1)
	if i.cfg.Schedule.DownAt(now) {
		i.outages.Add(1)
		return ErrInjected
	}
	return nil
}

// Calls returns how many calls the injector evaluated.
func (i *Injector) Calls() uint64 { return i.calls.Load() }

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
