package signal

import (
	"sync"
	"sync/atomic"
	"time"
)

// EngineConfig assembles an Engine; the zero value of every optional
// field selects a sensible default, and zeroing TopK, SketchDepth,
// DistinctPrecision or SurgePeriod does NOT disable the signal — explicit
// Disable* flags exist so the zero config is fully armed.
type EngineConfig struct {
	// Shards is the lock-stripe count, rounded up to a power of two;
	// defaults to DefaultShards.
	Shards int
	// Window is the sliding window for per-key rates; defaults to 1 h.
	Window time.Duration
	// WindowBuckets is the rate-window ring size; defaults to
	// DefaultWindowBuckets.
	WindowBuckets int
	// TopK is how many heavy hitters each shard tracks; defaults to 16.
	TopK int
	// SketchWidth and SketchDepth size each shard's count-min sketch;
	// default 2048x4.
	SketchWidth, SketchDepth int
	// DistinctPrecision sizes per-key distinct counters; defaults to
	// DefaultDistinctPrecision.
	DistinctPrecision uint8
	// SurgeStart anchors the surge detector's tumbling periods.
	SurgeStart time.Time
	// SurgePeriod is the surge baseline period; defaults to 24 h.
	SurgePeriod time.Duration
	// DisableSurge, DisableDistinct, DisableSketch and DisableTopK turn
	// individual signals off to save their memory.
	DisableSurge, DisableDistinct, DisableSketch, DisableTopK bool
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
	sweeps   atomic.Uint64
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
	if cfg.WindowBuckets <= 0 {
		cfg.WindowBuckets = DefaultWindowBuckets
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 16
	}
	if cfg.SketchWidth <= 0 {
		cfg.SketchWidth = 2048
	}
	if cfg.SketchDepth <= 0 {
		cfg.SketchDepth = 4
	}
	if cfg.DistinctPrecision == 0 {
		cfg.DistinctPrecision = DefaultDistinctPrecision
	}
	if cfg.SurgePeriod <= 0 {
		cfg.SurgePeriod = 24 * time.Hour
	}
	n := shardCount(cfg.Shards, DefaultShards)
	e := &Engine{cfg: cfg, shards: make([]engineShard, n), mask: uint64(n - 1)}
	for i := range e.shards {
		s := &e.shards[i]
		s.windows = make(map[string]*Window)
		if !cfg.DisableDistinct {
			s.distinct = make(map[string]*Distinct)
		}
		if !cfg.DisableSketch {
			s.sketch = NewCountMin(cfg.SketchWidth, cfg.SketchDepth)
		}
		if !cfg.DisableTopK {
			s.topk = NewTopK(cfg.TopK)
		}
		if !cfg.DisableSurge {
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
		e.sweeps.Add(1)
	}
	w, ok := s.windows[key]
	if !ok {
		w = NewWindow(e.cfg.Window, e.cfg.WindowBuckets)
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
	e.sweeps.Add(1)
}

// Sweeps returns how many sweep passes have run (periodic per-shard
// sweeps and explicit Sweep calls).
func (e *Engine) Sweeps() uint64 { return e.sweeps.Load() }

// EngineStats is the engine's observability snapshot on the obs contract.
type EngineStats struct {
	// Observed is how many events the engine has ingested.
	Observed uint64
	// TrackedKeys is how many keys currently hold per-key state.
	TrackedKeys int
	// Sweeps counts sweep passes over shard state.
	Sweeps uint64
	// Shards is the configured lock-stripe count.
	Shards int
}

// Stats snapshots the engine's totals. TrackedKeys takes each shard lock
// in turn, so the snapshot is approximate under concurrent writes and
// exact when quiesced — the same contract as the cross-shard queries.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Observed:    e.Observed(),
		TrackedKeys: e.TrackedKeys(),
		Sweeps:      e.Sweeps(),
		Shards:      len(e.shards),
	}
}
