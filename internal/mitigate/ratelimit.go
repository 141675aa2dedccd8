// Package mitigate implements the countermeasures the paper's Section V
// recommends: ad-hoc rate limiting (keyed sliding windows, with the key
// choice — path vs user profile vs booking reference — as a first-class
// ablation), feature access restriction to trusted users, extra anti-bot
// friction (a CAPTCHA gate with a solver-cost model), TTL'd block rules, and
// honeypot decoy inventory that undermines attacker economics.
package mitigate

import (
	"sort"
	"time"
)

// KeyedLimiter applies an independent sliding-window limit per string key.
// It is the building block for all the "ad-hoc rate limiting" variants: the
// key function decides whether the limit is per path, per user profile, per
// booking reference or per destination number.
type KeyedLimiter struct {
	window  time.Duration
	limit   int
	events  map[string][]time.Time
	denials map[string]int
	// evictedDenials preserves TotalDenials across stale-key eviction.
	evictedDenials int
	ops            int
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
		window:  window,
		limit:   limit,
		events:  make(map[string][]time.Time),
		denials: make(map[string]int),
	}
}

// Limit returns the per-window allowance.
func (l *KeyedLimiter) Limit() int { return l.limit }

// Window returns the trailing window.
func (l *KeyedLimiter) Window() time.Duration { return l.window }

// Allow records an attempt for key at now and reports whether it is within
// the limit. Denied attempts are counted but not recorded as events (a
// rejected request does not consume allowance). Every keyedSweepEvery
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
		l.denials[key]++
		return false
	}
	l.events[key] = append(evs, now)
	return true
}

// Sweep drops every key whose event slice is empty once pruned to the
// trailing window as of now. Evicted keys fold their denial counters into
// an aggregate so TotalDenials stays exact; per-key Denials and
// DeniedKeys cover only keys still tracked.
func (l *KeyedLimiter) Sweep(now time.Time) {
	cutoff := now.Add(-l.window)
	for k, evs := range l.events {
		start := 0
		for start < len(evs) && !evs[start].After(cutoff) {
			start++
		}
		if start == len(evs) {
			delete(l.events, k)
			l.evictedDenials += l.denials[k]
			delete(l.denials, k)
			continue
		}
		if start > 0 {
			l.events[k] = evs[start:]
		}
	}
	// A denial-only key never had events this window; it is stale too.
	for k, n := range l.denials {
		if _, live := l.events[k]; !live {
			l.evictedDenials += n
			delete(l.denials, k)
		}
	}
}

// TrackedKeys returns how many keys currently hold event state.
func (l *KeyedLimiter) TrackedKeys() int { return len(l.events) }

// Denials returns how many attempts were rejected for key since it was
// last evicted as stale.
func (l *KeyedLimiter) Denials(key string) int { return l.denials[key] }

// TotalDenials sums rejections across keys, including evicted ones.
func (l *KeyedLimiter) TotalDenials() int {
	total := l.evictedDenials
	for _, n := range l.denials {
		total += n
	}
	return total
}

// DeniedKeys returns all currently tracked keys with at least one denial,
// sorted.
func (l *KeyedLimiter) DeniedKeys() []string {
	out := make([]string, 0, len(l.denials))
	for k := range l.denials {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
