package simclock

import (
	"testing"
	"time"
)

var epoch = time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)

func TestManualAdvance(t *testing.T) {
	c := NewManual(epoch)
	if got := c.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	c.Advance(90 * time.Minute)
	want := epoch.Add(90 * time.Minute)
	if got := c.Now(); !got.Equal(want) {
		t.Fatalf("after Advance Now() = %v, want %v", got, want)
	}
}

func TestManualAdvanceNegativeIgnored(t *testing.T) {
	c := NewManual(epoch)
	c.Advance(-time.Hour)
	if got := c.Now(); !got.Equal(epoch) {
		t.Fatalf("negative Advance moved clock to %v", got)
	}
}

func TestManualSetAtRejectsPast(t *testing.T) {
	c := NewManual(epoch)
	c.Advance(time.Hour)
	if c.SetAt(epoch) {
		t.Fatal("SetAt accepted a past instant")
	}
	if !c.SetAt(epoch.Add(2 * time.Hour)) {
		t.Fatal("SetAt rejected a future instant")
	}
}

func TestRealClockMonotonicEnough(t *testing.T) {
	var r Real
	a := r.Now()
	b := r.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}

func TestSchedulerFiresInOrder(t *testing.T) {
	s := NewScheduler(NewManual(epoch))
	var order []int
	s.Schedule(epoch.Add(3*time.Second), func(time.Time) { order = append(order, 3) })
	s.Schedule(epoch.Add(1*time.Second), func(time.Time) { order = append(order, 1) })
	s.Schedule(epoch.Add(2*time.Second), func(time.Time) { order = append(order, 2) })
	if err := s.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	s := NewScheduler(NewManual(epoch))
	at := epoch.Add(time.Minute)
	var order []int
	for i := range 5 {
		s.Schedule(at, func(time.Time) { order = append(order, i) })
	}
	if err := s.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestSchedulerPastEventFiresNow(t *testing.T) {
	clock := NewManual(epoch)
	s := NewScheduler(clock)
	clock.Advance(time.Hour)
	var fired time.Time
	s.Schedule(epoch, func(now time.Time) { fired = now })
	s.Step()
	if !fired.Equal(epoch.Add(time.Hour)) {
		t.Fatalf("past event fired at %v, want current instant", fired)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(NewManual(epoch))
	fired := false
	e := s.ScheduleAfter(time.Second, func(time.Time) { fired = true })
	if !e.Cancel() {
		t.Fatal("Cancel returned false on pending event")
	}
	if e.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if err := s.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulerRunUntilLeavesClockAtDeadline(t *testing.T) {
	s := NewScheduler(NewManual(epoch))
	fired := false
	s.ScheduleAfter(10*time.Hour, func(time.Time) { fired = true })
	deadline := epoch.Add(time.Hour)
	if err := s.RunUntil(deadline); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got := s.Now(); !got.Equal(deadline) {
		t.Fatalf("clock at %v, want deadline %v", got, deadline)
	}
	if fired {
		t.Fatalf("event past deadline fired")
	}
}

func TestSchedulerRunForFiresDue(t *testing.T) {
	s := NewScheduler(NewManual(epoch))
	count := 0
	for i := 1; i <= 10; i++ {
		s.ScheduleAfter(time.Duration(i)*time.Minute, func(time.Time) { count++ })
	}
	if err := s.RunFor(5 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 5 {
		t.Fatalf("fired %d events, want 5", count)
	}
}

func TestTickerPeriodicAndStop(t *testing.T) {
	s := NewScheduler(NewManual(epoch))
	var stamps []time.Time
	tk := s.ScheduleEvery(time.Minute, func(now time.Time) {
		stamps = append(stamps, now)
	})
	if err := s.RunFor(5 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	tk.Stop()
	if err := s.RunFor(5 * time.Minute); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if len(stamps) != 5 {
		t.Fatalf("ticker fired %d times, want 5", len(stamps))
	}
	for i, ts := range stamps {
		want := epoch.Add(time.Duration(i+1) * time.Minute)
		if !ts.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, ts, want)
		}
	}
}

func TestTickerSelfStopInsideCallback(t *testing.T) {
	s := NewScheduler(NewManual(epoch))
	var tk *Ticker
	n := 0
	tk = s.ScheduleEvery(time.Second, func(time.Time) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	if err := s.Drain(100); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n != 3 {
		t.Fatalf("ticker fired %d times after self-stop, want 3", n)
	}
}

func TestSchedulerDrainBound(t *testing.T) {
	s := NewScheduler(NewManual(epoch))
	fired := 0
	var rearm func(time.Time)
	rearm = func(time.Time) { fired++; s.ScheduleAfter(time.Second, rearm) }
	s.ScheduleAfter(time.Second, rearm)
	if err := s.Drain(50); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if fired != 50 {
		t.Fatalf("fired %d events, want 50", fired)
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler(NewManual(epoch))
	s.ScheduleAfter(time.Second, func(time.Time) { s.Stop() })
	s.ScheduleAfter(2*time.Second, func(time.Time) { t.Fatal("event after Stop fired") })
	if err := s.Drain(0); err != ErrStopped {
		t.Fatalf("Drain error = %v, want ErrStopped", err)
	}
}

func TestSchedulerLenExcludesCancelled(t *testing.T) {
	s := NewScheduler(NewManual(epoch))
	e1 := s.ScheduleAfter(time.Second, func(time.Time) {})
	s.ScheduleAfter(2*time.Second, func(time.Time) {})
	e1.Cancel()
	if got := s.Len(); got != 1 {
		t.Fatalf("Len() = %d, want 1", got)
	}
}

func TestEventAt(t *testing.T) {
	s := NewScheduler(NewManual(epoch))
	e := s.ScheduleAfter(time.Hour, func(time.Time) {})
	if !e.At().Equal(epoch.Add(time.Hour)) {
		t.Fatalf("At() = %v", e.At())
	}
}
