// Package mitigate implements the countermeasures the paper's Section V
// recommends: ad-hoc rate limiting (keyed sliding windows, with the key
// choice — path vs user profile vs booking reference — as a first-class
// ablation), extra anti-bot friction (a CAPTCHA gate with a solver-cost
// model), TTL'd block rules, and honeypot decoy inventory that undermines
// attacker economics. Feature access restriction to trusted users is the
// gate's account-tier layer (internal/account, internal/httpgate).
package mitigate

import (
	"time"
)

// KeyedLimiter applies an independent sliding-window limit per string key.
// It is the building block for all the "ad-hoc rate limiting" variants: the
// key function decides whether the limit is per path, per user profile, per
// booking reference or per destination number.
type KeyedLimiter struct {
	window time.Duration
	limit  int
	events map[string][]time.Time
	ops    int
}

// keyedSweepEvery is how many Allow calls pass between stale-key sweeps.
const keyedSweepEvery = 256

// NewKeyedLimiter allows at most limit events per key within any trailing
// window.
func NewKeyedLimiter(window time.Duration, limit int) *KeyedLimiter {
	if window <= 0 {
		window = time.Hour
	}
	if limit < 1 {
		limit = 1
	}
	return &KeyedLimiter{
		window: window,
		limit:  limit,
		events: make(map[string][]time.Time),
	}
}

// Allow records an attempt for key at now and reports whether it is within
// the limit. Denied attempts are not recorded as events (a rejected
// request does not consume allowance). Every keyedSweepEvery
// calls the limiter sweeps out keys with no in-window events, so memory
// tracks the recently active key set instead of growing forever.
func (l *KeyedLimiter) Allow(key string, now time.Time) bool {
	l.ops++
	if l.ops >= keyedSweepEvery {
		l.ops = 0
		l.Sweep(now)
	}
	evs := l.events[key]
	cutoff := now.Add(-l.window)
	start := 0
	for start < len(evs) && !evs[start].After(cutoff) {
		start++
	}
	evs = evs[start:]
	if len(evs) >= l.limit {
		l.events[key] = evs
		return false
	}
	l.events[key] = append(evs, now)
	return true
}

// Sweep drops every key whose event slice is empty once pruned to the
// trailing window as of now.
func (l *KeyedLimiter) Sweep(now time.Time) {
	cutoff := now.Add(-l.window)
	for k, evs := range l.events {
		start := 0
		for start < len(evs) && !evs[start].After(cutoff) {
			start++
		}
		if start == len(evs) {
			delete(l.events, k)
			continue
		}
		if start > 0 {
			l.events[k] = evs[start:]
		}
	}
}
