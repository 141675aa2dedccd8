package signal

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"funabuse/internal/keytab"
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
// fixed-size; per-key state (rate ring + distinct registers) is freed by
// periodic sweeps once a key has no in-window events, and its slot's ring
// serves the next key. Alerts derived from engine state must be journaled
// by the consumer (see detect.StreamMonitor) — the engine itself is
// working memory, not a ledger.
//
// Engine is safe for concurrent use.
type Engine struct {
	cfg      EngineConfig
	shards   []engineShard
	mask     uint64
	observed atomic.Uint64
}

// engineShard is one lock stripe. Its per-key state lives in a
// keytab.Table: the key's bytes and its state share a slot, iteration goes
// by slot, and a slot freed by a sweep keeps its ring and key buffer for
// the next key, as the limiter's shards keep their rings.
type engineShard struct {
	mu      sync.Mutex
	keys    *keytab.Table[engineKey]
	sketch  *CountMin
	topk    *TopK
	surge   *SurgeDetector
	ops     int
	inserts int // keys inserted since the last sweep
}

// engineKey is one key's per-key state: its rate ring, its distinct
// counter (nil until an attribute arrives for the key), and a copy of its
// bytes for the snapshot and publish paths, which keytab does not hand out.
type engineKey struct {
	w   Window
	d   *Distinct
	key []byte
}

// engineSlots caps nothing: the engine has no key budget (sweeps bound it),
// so its tables grow a quarter at a time however many keys arrive.
const engineSlots = math.MaxInt32

// NewEngine returns an engine for one dimension.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Window <= 0 {
		cfg.Window = time.Hour
	}
	n := shardCount(cfg.Shards, DefaultShards)
	e := &Engine{cfg: cfg, shards: make([]engineShard, n), mask: uint64(n - 1)}
	for i := range e.shards {
		s := &e.shards[i]
		s.keys = keytab.New[engineKey](engineSlots)
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
	return e.observe(bytesOf(key), "", now)
}

// ObserveBytes is Observe for a key assembled in a reusable byte buffer,
// so a per-request caller can build a prefixed key ("fp:<hex>") in scratch
// space. The engine copies a new key into its shard and keeps no
// reference to the buffer.
func (e *Engine) ObserveBytes(key []byte, now time.Time) int {
	return e.observe(key, "", now)
}

// ObserveAttr is Observe plus folding attr into key's distinct counter —
// e.g. key = device fingerprint, attr = exit IP, so the counter estimates
// how many residential exits one print has fanned out across.
func (e *Engine) ObserveAttr(key, attr string, now time.Time) int {
	return e.observe(bytesOf(key), attr, now)
}

// observe is the one observation body. key is only read: the shard's
// table copies a new key into its slot, and a sketch that keeps keys gets
// a string copy of its own.
func (e *Engine) observe(key []byte, attr string, now time.Time) int {
	h := hash64Bytes(key)
	s := &e.shards[h&e.mask]
	s.mu.Lock()
	s.ops++
	if s.ops >= sweepEvery {
		s.ops = 0
		s.sweep(now)
	}
	slot, ok := s.keys.Find(key)
	if !ok {
		slot = s.keys.Insert(key)
		s.inserts++
		e.resetKey(s.keys.At(slot), key)
	}
	k := s.keys.At(slot)
	rate := k.w.addCount(now)
	if s.sketch != nil {
		s.sketch.AddHash(h, 1)
	}
	if s.topk != nil || s.surge != nil {
		owned := string(key)
		if s.topk != nil {
			s.topk.Offer(owned, 1)
		}
		if s.surge != nil {
			s.surge.Observe(owned, now)
		}
	}
	if attr != "" && e.cfg.DistinctPrecision > 0 {
		if k.d == nil {
			k.d = NewDistinct(e.cfg.DistinctPrecision)
		}
		k.d.Add(attr)
	}
	s.mu.Unlock()
	e.observed.Add(1)
	return rate
}

// resetKey readies a slot for a new key: a slot whose buffers a sweep
// handed back gets a new ring, one that kept its ring keeps its buffers
// (every ring of one engine has the same geometry, so a reset ring is a
// new one). A slot comes out of a sweep without a distinct counter.
func (e *Engine) resetKey(k *engineKey, key []byte) {
	if k.w.counts == nil {
		k.w = *NewWindow(e.cfg.Window, DefaultWindowBuckets)
	} else {
		k.w.Reset()
	}
	k.key = append(k.key[:0], key...)
}

// sweep drops the per-key state of keys with no in-window events. A freed
// slot drops its distinct counter and keeps its ring and key buffer for
// the next key, but the spare slots holding them may not outnumber the live keys plus the keys that arrived since
// the previous sweep plus maxSpareRings, as in the limiter's shards: the
// rest go back to the garbage collector. Callers hold the shard lock.
func (s *engineShard) sweep(now time.Time) {
	spare := 0
	for i := range int32(s.keys.Slots()) {
		k := s.keys.At(i)
		if s.keys.Used(i) {
			if !k.w.Empty(now) {
				continue
			}
			s.keys.Delete(i)
			k.d = nil
		}
		if k.w.counts != nil {
			spare++
		}
	}
	keep := s.keys.Len() + s.inserts + maxSpareRings
	s.inserts = 0
	for i := int32(0); spare > keep; i++ {
		if k := s.keys.At(i); !s.keys.Used(i) && k.w.counts != nil {
			*k = engineKey{}
			spare--
		}
	}
}

// Rate returns key's in-window event count as of now (0 for unseen or
// swept keys).
func (e *Engine) Rate(key string, now time.Time) int {
	s := &e.shards[hash64(key)&e.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.keys.Find(bytesOf(key))
	if !ok {
		return 0
	}
	return s.keys.At(slot).w.Count(now)
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
	slot, ok := s.keys.Find(bytesOf(key))
	if !ok {
		return 0
	}
	if d := s.keys.At(slot).d; d != nil {
		return d.Estimate()
	}
	return 0
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
		total += s.keys.Len()
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
