package signal

import (
	"testing"
	"time"
)

func TestRateWindowCountsAndRate(t *testing.T) {
	r := NewRateWindow(time.Minute, 6)
	now := time.Date(2022, 12, 1, 0, 0, 0, 0, time.UTC)
	if got := r.FailureRate(now); got != 0 {
		t.Fatalf("empty rate %v", got)
	}
	r.Observe(now, true)
	r.Observe(now, true)
	r.Observe(now, false)
	r.Observe(now, false)
	if got := r.Total(now); got != 4 {
		t.Fatalf("total %d", got)
	}
	if got := r.FailureRate(now); got != 0.5 {
		t.Fatalf("rate %v", got)
	}
}

func TestRateWindowOutcomesExpire(t *testing.T) {
	r := NewRateWindow(time.Minute, 6)
	now := time.Date(2022, 12, 1, 0, 0, 0, 0, time.UTC)
	r.Observe(now, false)
	r.Observe(now, false)
	later := now.Add(2 * time.Minute)
	if got := r.Total(later); got != 0 {
		t.Fatalf("total %d after expiry", got)
	}
	r.Observe(later, true)
	if got := r.FailureRate(later); got != 0 {
		t.Fatalf("rate %v: expired failures still counted", got)
	}
}

func TestRateWindowReset(t *testing.T) {
	r := NewRateWindow(time.Minute, 6)
	now := time.Date(2022, 12, 1, 0, 0, 0, 0, time.UTC)
	r.Observe(now, false)
	r.Reset()
	if got := r.Total(now); got != 0 {
		t.Fatalf("total %d after reset", got)
	}
}
