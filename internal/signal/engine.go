package signal

import (
	"sync"
	"sync/atomic"
	"time"
)

// EngineConfig assembles an Engine. Per-key sliding-window rates are
// always on; every other signal is on when its size is set, so the zero
// config tracks windows only and each signal costs memory only when asked
// for.
type EngineConfig struct {
	// Shards is the lock-stripe count, rounded up to a power of two;
	// defaults to DefaultShards.
	Shards int
	// Window is the sliding window for per-key rates, on rings of
	// DefaultWindowBuckets buckets; defaults to 1 h.
	Window time.Duration
	// TopK, when positive, is how many heavy hitters each shard tracks.
	TopK int
	// SketchWidth, when positive, and SketchDepth size each shard's
	// count-min sketch.
	SketchWidth, SketchDepth int
	// DistinctPrecision, when positive, sizes per-key distinct counters
	// (DefaultDistinctPrecision is the usual choice).
	DistinctPrecision uint8
	// SurgeStart anchors the surge detector's tumbling periods.
	SurgeStart time.Time
	// SurgePeriod, when positive, is the surge baseline period.
	SurgePeriod time.Duration
}

// Engine aggregates one dimension of an event stream — one key space,
// such as destination country, URL path, device fingerprint or client
// key — into the full set of streaming signals: per-key sliding-window
// rates, count-min lifetime frequencies, per-key distinct-attribute
// cardinalities, space-saving heavy hitters, and baseline-relative
// surges. Create one Engine per dimension and feed every event through
// Observe (or ObserveAttr when the dimension carries an attribute whose
// cardinality matters, e.g. fingerprint → exit IP).
//
// Keys are lock-striped across shards; every structure is shard-local, so
// an observation takes exactly one shard lock. Cross-shard queries (Top,
// Surges, totals) merge shard snapshots and are therefore approximate
// under concurrent writes, exact when quiesced — experiments running on
// virtual time see exact values.
//
// Memory is bounded: sketches, heavy-hitter tables and ring windows are
// fixed-size; per-key state (rate ring + distinct registers) is dropped
// by periodic sweeps once a key has no in-window events. Alerts derived
// from engine state must be journaled by the consumer (see
// detect.StreamMonitor) — the engine itself is working memory, not a
// ledger.
//
// Engine is safe for concurrent use.
type Engine struct {
	cfg      EngineConfig
	shards   []engineShard
	mask     uint64
	observed atomic.Uint64
}

type engineShard struct {
	mu       sync.Mutex
	windows  map[string]*Window
	distinct map[string]*Distinct
	sketch   *CountMin
	topk     *TopK
	surge    *SurgeDetector
	ops      int
}

// NewEngine returns an engine for one dimension.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Window <= 0 {
		cfg.Window = time.Hour
	}
	n := shardCount(cfg.Shards, DefaultShards)
	e := &Engine{cfg: cfg, shards: make([]engineShard, n), mask: uint64(n - 1)}
	for i := range e.shards {
		s := &e.shards[i]
		s.windows = make(map[string]*Window)
		if cfg.DistinctPrecision > 0 {
			s.distinct = make(map[string]*Distinct)
		}
		if cfg.SketchWidth > 0 {
			s.sketch = NewCountMin(cfg.SketchWidth, cfg.SketchDepth)
		}
		if cfg.TopK > 0 {
			s.topk = NewTopK(cfg.TopK)
		}
		if cfg.SurgePeriod > 0 {
			s.surge = NewSurgeDetector(cfg.SurgeStart, cfg.SurgePeriod)
		}
	}
	return e
}

// Observe folds one event for key at the given instant into every enabled
// signal and returns the key's updated in-window rate.
func (e *Engine) Observe(key string, now time.Time) int {
	return e.observe(key, "", now)
}

// ObserveAttr is Observe plus folding attr into key's distinct counter —
// e.g. key = device fingerprint, attr = exit IP, so the counter estimates
// how many residential exits one print has fanned out across.
func (e *Engine) ObserveAttr(key, attr string, now time.Time) int {
	return e.observe(key, attr, now)
}

func (e *Engine) observe(key, attr string, now time.Time) int {
	h := hash64(key)
	s := &e.shards[h&e.mask]
	s.mu.Lock()
	s.ops++
	if s.ops >= sweepEvery {
		s.ops = 0
		s.sweep(now)
	}
	w, ok := s.windows[key]
	if !ok {
		w = NewWindow(e.cfg.Window, DefaultWindowBuckets)
		s.windows[key] = w
	}
	rate := w.addCount(now)
	if s.sketch != nil {
		s.sketch.AddHash(h, 1)
	}
	if s.topk != nil {
		s.topk.Offer(key, 1)
	}
	if s.surge != nil {
		s.surge.Observe(key, now)
	}
	if attr != "" && s.distinct != nil {
		d, ok := s.distinct[key]
		if !ok {
			d = NewDistinct(e.cfg.DistinctPrecision)
			s.distinct[key] = d
		}
		d.Add(attr)
	}
	s.mu.Unlock()
	e.observed.Add(1)
	return rate
}

// sweep drops per-key state for keys with no in-window events. Callers
// hold the shard lock.
func (s *engineShard) sweep(now time.Time) {
	for k, w := range s.windows {
		if w.Empty(now) {
			delete(s.windows, k)
			if s.distinct != nil {
				delete(s.distinct, k)
			}
		}
	}
}

// Rate returns key's in-window event count as of now (0 for unseen or
// swept keys).
func (e *Engine) Rate(key string, now time.Time) int {
	s := &e.shards[hash64(key)&e.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.windows[key]
	if !ok {
		return 0
	}
	return w.Count(now)
}

// Freq returns the count-min estimate of key's lifetime frequency (an
// upper bound on the truth), or 0 with the sketch disabled.
func (e *Engine) Freq(key string) uint64 {
	h := hash64(key)
	s := &e.shards[h&e.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sketch == nil {
		return 0
	}
	return s.sketch.CountHash(h)
}

// Distinct returns the estimated number of distinct attributes observed
// for key (0 for unseen or swept keys, or with the signal disabled).
func (e *Engine) Distinct(key string) float64 {
	s := &e.shards[hash64(key)&e.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.distinct == nil {
		return 0
	}
	d, ok := s.distinct[key]
	if !ok {
		return 0
	}
	return d.Estimate()
}

// Top returns the n heaviest keys merged across shards. Each key lives in
// exactly one shard, so the merge introduces no double counting.
func (e *Engine) Top(n int) []TopEntry {
	var all []TopEntry
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		if s.topk != nil {
			all = append(all, s.topk.Top(0)...)
		}
		s.mu.Unlock()
	}
	sortTopEntries(all)
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}

// Surges returns the n largest baseline-relative surges merged across
// shards as of now (pass n <= 0 for all). Shards whose detectors have not
// seen recent events are advanced to now first, so stale periods do not
// linger in the ranking.
func (e *Engine) Surges(n int, now time.Time) []KeySurge {
	var all []KeySurge
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		if s.surge != nil {
			s.surge.Advance(now)
			all = append(all, s.surge.Surges()...)
		}
		s.mu.Unlock()
	}
	SortSurges(all)
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}

// SurgeTotals sums baseline- and current-period event counts across
// shards as of now.
func (e *Engine) SurgeTotals(now time.Time) (before, after int) {
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		if s.surge != nil {
			s.surge.Advance(now)
			b, a := s.surge.Totals()
			before += b
			after += a
		}
		s.mu.Unlock()
	}
	return before, after
}

// Observed returns how many events the engine has ingested.
func (e *Engine) Observed() uint64 { return e.observed.Load() }

// TrackedKeys returns how many keys currently hold per-key state.
func (e *Engine) TrackedKeys() int {
	total := 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		total += len(s.windows)
		s.mu.Unlock()
	}
	return total
}

// Sweep drops idle per-key state across all shards as of now.
func (e *Engine) Sweep(now time.Time) {
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		s.sweep(now)
		s.mu.Unlock()
	}
}
