package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2022, time.December, 1, 0, 0, 0, 0, time.UTC)

func TestScheduleDownAt(t *testing.T) {
	s := Schedule{Start: t0, Period: time.Hour, Down: 20 * time.Minute}
	cases := []struct {
		at   time.Duration
		down bool
	}{
		{-time.Minute, false}, // before Start
		{0, true},
		{19 * time.Minute, true},
		{20 * time.Minute, false},
		{59 * time.Minute, false},
		{time.Hour, true}, // next period
		{time.Hour + 20*time.Minute, false},
		{5*time.Hour + 10*time.Minute, true},
	}
	for _, c := range cases {
		if got := s.DownAt(t0.Add(c.at)); got != c.down {
			t.Fatalf("DownAt(start%+v) = %v, want %v", c.at, got, c.down)
		}
	}
}

func TestScheduleDisabled(t *testing.T) {
	if (Schedule{}).DownAt(t0) {
		t.Fatal("zero schedule reported down")
	}
	if (Schedule{Start: t0, Period: time.Hour}).DownAt(t0) {
		t.Fatal("zero Down reported down")
	}
}

func TestScheduleDownClampedToPeriod(t *testing.T) {
	s := Schedule{Start: t0, Period: time.Hour, Down: 2 * time.Hour}
	for _, at := range []time.Duration{0, 30 * time.Minute, 3 * time.Hour} {
		if !s.DownAt(t0.Add(at)) {
			t.Fatalf("clamped schedule up at %v", at)
		}
	}
}

func TestInjectorScheduleOutages(t *testing.T) {
	inj := New(Config{Schedule: Schedule{Start: t0, Period: time.Hour, Down: 10 * time.Minute}})
	if err := inj.Hit(t0); !errors.Is(err, ErrInjected) {
		t.Fatalf("err %v in down-window", err)
	}
	if err := inj.Hit(t0.Add(30 * time.Minute)); err != nil {
		t.Fatalf("err %v in up-window", err)
	}
	if inj.Outages() != 1 || inj.Calls() != 2 {
		t.Fatalf("outages %d calls %d", inj.Outages(), inj.Calls())
	}
}

func TestInjectorConcurrentCountsExact(t *testing.T) {
	inj := New(Config{Schedule: Schedule{Start: t0, Period: 10 * time.Second, Down: 3 * time.Second}})
	const workers, per = 8, 500
	counts := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range per {
				if inj.Hit(t0.Add(time.Duration(i)*time.Second)) != nil {
					counts[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var seen uint64
	for _, c := range counts {
		seen += c
	}
	// Each worker walks the same 500 s: 50 periods, 3 down seconds each.
	if seen != inj.Outages() || seen != workers*150 {
		t.Fatalf("callers saw %d outages, injector counted %d, want %d", seen, inj.Outages(), workers*150)
	}
	if inj.Calls() != workers*per {
		t.Fatalf("calls %d", inj.Calls())
	}
}

func TestWrapErr(t *testing.T) {
	inj := New(Config{Schedule: Schedule{Start: t0, Period: time.Hour, Down: time.Minute}})
	errInner := errors.New("inner")
	check := inj.WrapErr(func(key string, now time.Time) (bool, error) {
		if key == "fail" {
			return false, errInner
		}
		return key == "yes", nil
	})
	if _, err := check("yes", t0); !errors.Is(err, ErrInjected) {
		t.Fatalf("err %v in outage", err)
	}
	up := t0.Add(30 * time.Minute)
	if ok, err := check("yes", up); err != nil || !ok {
		t.Fatalf("ok %v err %v", ok, err)
	}
	if ok, err := check("no", up); err != nil || ok {
		t.Fatalf("ok %v err %v", ok, err)
	}
	if _, err := check("fail", up); !errors.Is(err, errInner) {
		t.Fatalf("inner error not preserved: %v", err)
	}
}

func TestScheduleBackToBackWindows(t *testing.T) {
	// Down == Period: every period's outage abuts the next, so the target
	// is down at every instant from Start on — with no single up instant
	// at the seams.
	s := Schedule{Start: t0, Period: time.Minute, Down: time.Minute}
	for _, at := range []time.Duration{
		0, time.Minute - time.Nanosecond, time.Minute,
		time.Minute + time.Nanosecond, 90 * time.Minute,
	} {
		if !s.DownAt(t0.Add(at)) {
			t.Fatalf("back-to-back schedule up at start%+v", at)
		}
	}
	if s.DownAt(t0.Add(-time.Nanosecond)) {
		t.Fatal("back-to-back schedule down before Start")
	}
}

func TestScheduleNegativeDownNeverFires(t *testing.T) {
	s := Schedule{Start: t0, Period: time.Minute, Down: -time.Second}
	for _, at := range []time.Duration{0, time.Second, time.Hour} {
		if s.DownAt(t0.Add(at)) {
			t.Fatalf("negative-Down schedule down at start%+v", at)
		}
	}
}
