package simclock

import (
	"container/heap"
	"errors"
	"time"
)

// ErrStopped is returned by Scheduler.Run when the scheduler was stopped
// before the run condition was met.
var ErrStopped = errors.New("simclock: scheduler stopped")

// Event is a scheduled callback. Events are created by the Scheduler and can
// be cancelled until they fire.
type Event struct {
	at       time.Time
	seq      uint64
	fn       func(now time.Time)
	index    int // heap index, -1 once removed
	canceled bool
}

// At returns the virtual instant the event is scheduled for.
func (e *Event) At() time.Time { return e.at }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the cancellation
// took effect.
func (e *Event) Cancel() bool {
	if e.canceled || e.index < 0 {
		return false
	}
	e.canceled = true
	return true
}

// Scheduler is a deterministic discrete-event executor over a Manual clock.
// Events scheduled for the same instant fire in scheduling order (FIFO by
// sequence number), which keeps simulations reproducible.
//
// Scheduler is not safe for concurrent use: the simulation model is
// single-threaded virtual time. Concurrency in the simulated world is
// expressed as interleaved events, not goroutines.
type Scheduler struct {
	clock   *Manual
	queue   eventQueue
	nextSeq uint64
	stopped bool
}

// NewScheduler returns a Scheduler driving the given Manual clock.
func NewScheduler(clock *Manual) *Scheduler {
	return &Scheduler{clock: clock}
}

// Clock returns the Manual clock the scheduler drives.
func (s *Scheduler) Clock() *Manual { return s.clock }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.clock.Now() }

// Len returns the number of pending (non-cancelled) events.
func (s *Scheduler) Len() int {
	n := 0
	for _, e := range s.queue {
		if !e.canceled {
			n++
		}
	}
	return n
}

// Schedule registers fn to run at instant at. Events scheduled in the past
// fire at the current instant instead (time never moves backwards).
func (s *Scheduler) Schedule(at time.Time, fn func(now time.Time)) *Event {
	if now := s.clock.Now(); at.Before(now) {
		at = now
	}
	e := &Event{at: at, seq: s.nextSeq, fn: fn}
	s.nextSeq++
	heap.Push(&s.queue, e)
	return e
}

// ScheduleAfter registers fn to run d after the current instant.
func (s *Scheduler) ScheduleAfter(d time.Duration, fn func(now time.Time)) *Event {
	return s.Schedule(s.clock.Now().Add(d), fn)
}

// ScheduleEvery registers fn to run every interval, starting one interval
// from now, until the returned Ticker is stopped or the scheduler drains.
func (s *Scheduler) ScheduleEvery(interval time.Duration, fn func(now time.Time)) *Ticker {
	if interval <= 0 {
		interval = time.Nanosecond
	}
	t := &Ticker{sched: s, interval: interval, fn: fn}
	t.arm()
	return t
}

// Step fires the single earliest pending event, advancing the clock to its
// instant. It reports whether an event fired.
func (s *Scheduler) Step() bool {
	for s.queue.Len() > 0 {
		e, ok := heap.Pop(&s.queue).(*Event)
		if !ok {
			return false
		}
		e.index = -1
		if e.canceled {
			continue
		}
		s.clock.SetAt(e.at)
		e.fn(e.at)
		return true
	}
	return false
}

// RunUntil fires events in order until the queue drains or the next event
// is after deadline. The clock is left at deadline if it was reached, or at
// the last fired event otherwise.
func (s *Scheduler) RunUntil(deadline time.Time) error {
	for {
		if s.stopped {
			return ErrStopped
		}
		e := s.peek()
		if e == nil || e.at.After(deadline) {
			s.clock.SetAt(deadline)
			return nil
		}
		s.Step()
	}
}

// RunFor is RunUntil with a relative horizon.
func (s *Scheduler) RunFor(d time.Duration) error {
	return s.RunUntil(s.clock.Now().Add(d))
}

// Drain fires all pending events. maxEvents bounds runaway self-rescheduling
// workloads; pass 0 for no bound.
func (s *Scheduler) Drain(maxEvents uint64) error {
	var n uint64
	for s.Step() {
		if s.stopped {
			return ErrStopped
		}
		n++
		if maxEvents > 0 && n >= maxEvents {
			return nil
		}
	}
	return nil
}

// Stop marks the scheduler stopped; the current Run call returns ErrStopped.
func (s *Scheduler) Stop() { s.stopped = true }

func (s *Scheduler) peek() *Event {
	for s.queue.Len() > 0 {
		e := s.queue[0]
		if !e.canceled {
			return e
		}
		heap.Pop(&s.queue)
		e.index = -1
	}
	return nil
}

// Ticker re-arms a periodic event until stopped.
type Ticker struct {
	sched    *Scheduler
	interval time.Duration
	fn       func(now time.Time)
	ev       *Event
	stopped  bool
}

// Stop prevents future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.ev != nil {
		t.ev.Cancel()
	}
}

func (t *Ticker) arm() {
	t.ev = t.sched.ScheduleAfter(t.interval, func(now time.Time) {
		if t.stopped {
			return
		}
		t.fn(now)
		if !t.stopped {
			t.arm()
		}
	})
}

// eventQueue implements heap.Interface ordered by (at, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e, ok := x.(*Event)
	if !ok {
		return
	}
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}
