package signal

import (
	"maps"
	"math"
	"sort"
	"time"
)

// KeySurge is one key's rate change between the previous (baseline) period
// and the current one — a streaming row of the paper's Table I.
type KeySurge struct {
	Key    string
	Before int
	After  int
	// IncreasePct is the percentage increase. Keys absent from the
	// baseline use a floor of one event so the ratio stays finite,
	// matching how such tables are computed in practice (and exactly
	// matching the offline sms.SurgeByCountry computation).
	IncreasePct float64
}

// SurgeDetector flags per-key rate surges against a trailing baseline: it
// counts events per key in tumbling periods and, at any instant, compares
// the current period against the previous complete one. Run with a
// one-week period over the Airline D stream it reproduces Table I's
// percentage-surge column online; run with shorter periods it is a live
// alarm for the per-country spike that was the attack's only tell.
//
// Memory is two maps bounded by the number of keys active in two periods;
// the detector suits low-cardinality dimensions (countries, paths,
// feature names). For unbounded key spaces, put TopK or CountMin in front
// and feed only the heavy keys.
//
// SurgeDetector is not safe for concurrent use; Engine shards and locks
// around per-shard detectors.
type SurgeDetector struct {
	start  time.Time
	period time.Duration
	curIdx int64
	cur    map[string]int
	prev   map[string]int
}

// NewSurgeDetector returns a detector with the given period anchored at
// start; a non-positive period falls back to 24 h.
func NewSurgeDetector(start time.Time, period time.Duration) *SurgeDetector {
	if period <= 0 {
		period = 24 * time.Hour
	}
	return &SurgeDetector{
		start:  start,
		period: period,
		cur:    make(map[string]int),
		prev:   make(map[string]int),
	}
}

// Observe records one event for key at the given instant.
func (s *SurgeDetector) Observe(key string, at time.Time) { s.ObserveN(key, at, 1) }

// ObserveN records n events for key at the given instant. Events from the
// previous period still fold into the baseline; older events are dropped.
// Moving into a later period rolls the windows (the current map becomes
// the baseline; skipping a full period empties both).
func (s *SurgeDetector) ObserveN(key string, at time.Time, n int) {
	if n <= 0 {
		return
	}
	idx := int64(at.Sub(s.start) / s.period)
	if at.Before(s.start) {
		idx-- // integer division truncates toward zero
	}
	switch {
	case idx == s.curIdx:
		s.cur[key] += n
	case idx == s.curIdx-1:
		s.prev[key] += n
	case idx > s.curIdx:
		s.roll(idx)
		s.cur[key] += n
	}
}

// roll advances the detector to period idx.
func (s *SurgeDetector) roll(idx int64) {
	if idx == s.curIdx+1 {
		s.prev = s.cur
	} else {
		s.prev = make(map[string]int)
	}
	s.cur = make(map[string]int)
	s.curIdx = idx
}

// Merge folds another detector with the same anchor and period into this
// one: the receiver first rolls forward to the later of the two current
// periods, then per-key counts add, with the other side's current and
// baseline maps landing in whichever window matches their period index.
// Counts from periods older than the merged baseline are dropped, exactly
// as a roll would have dropped them. It reports whether the anchors and
// periods matched; mismatched detectors are left untouched.
func (s *SurgeDetector) Merge(o *SurgeDetector) bool {
	if o == nil || !o.start.Equal(s.start) || o.period != s.period {
		return false
	}
	if o.curIdx > s.curIdx {
		s.roll(o.curIdx)
	}
	switch {
	case o.curIdx == s.curIdx:
		addCounts(s.cur, o.cur)
		addCounts(s.prev, o.prev)
	case o.curIdx == s.curIdx-1:
		addCounts(s.prev, o.cur)
	}
	return true
}

// Clone returns a deep copy of the detector.
func (s *SurgeDetector) Clone() *SurgeDetector {
	return &SurgeDetector{
		start:  s.start,
		period: s.period,
		curIdx: s.curIdx,
		cur:    maps.Clone(s.cur),
		prev:   maps.Clone(s.prev),
	}
}

func addCounts(dst, src map[string]int) {
	for k, v := range src {
		dst[k] += v
	}
}

// Advance rolls the detector forward to the period containing now without
// recording an event, so queries after a quiet stretch see fresh windows.
func (s *SurgeDetector) Advance(now time.Time) {
	idx := int64(now.Sub(s.start) / s.period)
	if now.Before(s.start) {
		idx--
	}
	if idx > s.curIdx {
		s.roll(idx)
	}
}

// Surges returns every key seen in either period, sorted by descending
// increase (ties by ascending key).
func (s *SurgeDetector) Surges() []KeySurge {
	seen := make(map[string]bool, len(s.cur)+len(s.prev))
	for k := range s.cur {
		seen[k] = true
	}
	for k := range s.prev {
		seen[k] = true
	}
	out := make([]KeySurge, 0, len(seen))
	for k := range seen {
		out = append(out, makeSurge(k, s.prev[k], s.cur[k]))
	}
	SortSurges(out)
	return out
}

// Top returns the n largest surges.
func (s *SurgeDetector) Top(n int) []KeySurge {
	all := s.Surges()
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}

// Totals returns the summed event counts of the baseline and current
// periods.
func (s *SurgeDetector) Totals() (before, after int) {
	for _, n := range s.prev {
		before += n
	}
	for _, n := range s.cur {
		after += n
	}
	return before, after
}

// GlobalIncreasePct returns the overall percentage rate change between
// the two periods, 0 when both are empty and +Inf for a surge from an
// empty baseline.
func (s *SurgeDetector) GlobalIncreasePct() float64 {
	before, after := s.Totals()
	if before == 0 {
		if after == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (float64(after) - float64(before)) / float64(before) * 100
}

// makeSurge computes one row with the floor-of-one baseline convention.
func makeSurge(key string, before, after int) KeySurge {
	floor := before
	if floor == 0 {
		floor = 1
	}
	return KeySurge{
		Key:         key,
		Before:      before,
		After:       after,
		IncreasePct: (float64(after) - float64(before)) / float64(floor) * 100,
	}
}

// SortSurges orders surges by descending increase, ties by ascending key —
// the canonical Table I ordering.
func SortSurges(s []KeySurge) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].IncreasePct != s[j].IncreasePct {
			return s[i].IncreasePct > s[j].IncreasePct
		}
		return s[i].Key < s[j].Key
	})
}
