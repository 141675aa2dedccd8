package signal

import (
	"sync"
	"sync/atomic"
	"time"
)

// Limiter is a sharded keyed sliding-window rate limiter: the concurrent,
// memory-bounded replacement for serialising gate decisions behind one
// mutex over per-key timestamp slices. Keys are lock-striped across
// shards, each key's in-window count lives in a constant-size bucket ring
// (see Window), and shards periodically evict keys with no in-window
// events, so memory is proportional to the set of recently active keys.
//
// Semantics match mitigate.KeyedLimiter: at most limit events per key in
// any trailing window, and a denied attempt is counted but does not
// consume allowance. The only divergence is expiry granularity — events
// age out within one bucket width of the exact window edge.
//
// Limiter is safe for concurrent use.
type Limiter struct {
	window  time.Duration
	limit   int
	buckets int
	shards  []limiterShard
	mask    uint64
	denials atomic.Uint64
}

// limiterShard is one lock stripe, sized to exactly one 64-byte cache line
// (mutex 8 + map 8 + ops 8 + slice 24 + pad 16; a test pins the multiple)
// so neighbouring shards' hot locks never share one.
type limiterShard struct {
	mu   sync.Mutex
	keys map[string]*Window
	ops  int
	// free holds rings the sweep took back from idle keys for the next
	// inserts to reuse: an insert then costs the key's string clone and
	// nothing else.
	free []*Window
	_    [16]byte
}

// LimiterConfig tunes a Limiter; the zero value of every optional field
// selects a sensible default.
type LimiterConfig struct {
	// Window is the trailing window; non-positive means one hour.
	Window time.Duration
	// Limit is the per-key allowance per window; values < 1 are clamped.
	Limit int
	// Buckets is the expiry granularity (ring size per key); defaults to
	// DefaultWindowBuckets.
	Buckets int
	// Shards is the lock-stripe count, rounded up to a power of two;
	// defaults to DefaultShards.
	Shards int
}

// DefaultShards is the default lock-stripe count for sharded containers.
const DefaultShards = 16

// sweepEvery is how many shard operations pass between idle-key sweeps.
const sweepEvery = 1024

// maxFreeWindows caps a shard's free list, and with it the memory an idle
// limiter keeps: 256 default-geometry rings are ~112 KiB a shard. A sweep
// that frees more leaves the rest to the garbage collector, as before.
const maxFreeWindows = 256

// NewLimiter returns a sharded limiter.
func NewLimiter(cfg LimiterConfig) *Limiter {
	if cfg.Window <= 0 {
		cfg.Window = time.Hour
	}
	if cfg.Limit < 1 {
		cfg.Limit = 1
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = DefaultWindowBuckets
	}
	n := shardCount(cfg.Shards, DefaultShards)
	l := &Limiter{
		window:  cfg.Window,
		limit:   cfg.Limit,
		buckets: cfg.Buckets,
		shards:  make([]limiterShard, n),
		mask:    uint64(n - 1),
	}
	for i := range l.shards {
		l.shards[i].keys = make(map[string]*Window)
	}
	return l
}

// Limit returns the per-window allowance.
func (l *Limiter) Limit() int { return l.limit }

// Window returns the trailing window.
func (l *Limiter) Window() time.Duration { return l.window }

// Allow records an attempt for key at now and reports whether it is
// within the limit.
func (l *Limiter) Allow(key string, now time.Time) bool {
	s := &l.shards[hash64(key)&l.mask]
	s.mu.Lock()
	s.ops++
	if s.ops >= sweepEvery {
		s.ops = 0
		s.sweep(now)
	}
	w, ok := s.keys[key]
	if !ok {
		w = l.newWindow(s)
		s.keys[key] = w
	}
	allowed := w.admit(now, l.limit)
	s.mu.Unlock()
	if !allowed {
		l.denials.Add(1)
	}
	return allowed
}

// AllowBytes is Allow for a key assembled in a reusable byte buffer: the
// lookup hashes and probes the shard map without materialising a string,
// so per-request callers can build prefixed keys ("pf:<sid>") into scratch
// space. A string is allocated only when the key is first inserted — the
// point the map must retain it — so steady-state traffic over a recurring
// key set allocates nothing.
func (l *Limiter) AllowBytes(key []byte, now time.Time) bool {
	s := &l.shards[hash64Bytes(key)&l.mask]
	s.mu.Lock()
	allowed := l.allowBytesLocked(s, key, now)
	s.mu.Unlock()
	if !allowed {
		l.denials.Add(1)
	}
	return allowed
}

// AllowBatch records one attempt per key at the shared instant now,
// writing each verdict into out (which must hold at least len(keys)
// entries). The batch is processed shard by shard so each stripe lock is
// taken at most once per call and every key is hashed exactly once; keys
// of one shard keep their index order, so per-key verdicts — and the
// denial total — are identical to calling AllowBytes for each key in
// index order. The hash scratch is pooled: steady state allocates nothing.
func (l *Limiter) AllowBatch(now time.Time, keys [][]byte, out []bool) {
	if len(keys) == 0 {
		return
	}
	hp := hashScratch.Get().(*[]uint64)
	hashes := *hp
	if cap(hashes) < len(keys) {
		hashes = make([]uint64, len(keys))
	}
	hashes = hashes[:len(keys)]
	for i, k := range keys {
		hashes[i] = hash64Bytes(k)
	}
	denied := uint64(0)
	for si := range l.shards {
		s := &l.shards[si]
		locked := false
		for i, h := range hashes {
			if h&l.mask != uint64(si) {
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
			}
			allowed := l.allowBytesLocked(s, keys[i], now)
			out[i] = allowed
			if !allowed {
				denied++
			}
		}
		if locked {
			s.mu.Unlock()
		}
	}
	if denied > 0 {
		l.denials.Add(denied)
	}
	*hp = hashes
	hashScratch.Put(hp)
}

// hashScratch pools AllowBatch's per-call hash buffers.
var hashScratch = sync.Pool{New: func() any { return new([]uint64) }}

// allowBytesLocked runs one attempt against a shard for a scratch-built
// key, mirroring Allow's body byte-for-byte (sweep cadence included) so
// the two entry points stay behaviourally identical. Callers hold the
// shard lock.
func (l *Limiter) allowBytesLocked(s *limiterShard, key []byte, now time.Time) bool {
	s.ops++
	if s.ops >= sweepEvery {
		s.ops = 0
		s.sweep(now)
	}
	w, ok := s.keys[string(key)]
	if !ok {
		w = l.newWindow(s)
		s.keys[string(key)] = w
	}
	return w.admit(now, l.limit)
}

// Count returns key's in-window event count as of now.
func (l *Limiter) Count(key string, now time.Time) int {
	s := &l.shards[hash64(key)&l.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.keys[key]
	if !ok {
		return 0
	}
	return w.Count(now)
}

// Denials returns how many attempts were rejected across all keys.
func (l *Limiter) Denials() uint64 { return l.denials.Load() }

// TrackedKeys returns how many keys currently hold window state, across
// all shards.
func (l *Limiter) TrackedKeys() int {
	total := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		total += len(s.keys)
		s.mu.Unlock()
	}
	return total
}

// Sweep drops every key with no in-window events as of now. Shards also
// sweep themselves automatically every sweepEvery operations.
func (l *Limiter) Sweep(now time.Time) {
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		s.sweep(now)
		s.mu.Unlock()
	}
}

// sweep removes idle keys from the shard, keeping up to maxFreeWindows of
// their rings for reuse. Callers hold the shard lock.
func (s *limiterShard) sweep(now time.Time) {
	for k, w := range s.keys {
		if !w.Empty(now) {
			continue
		}
		delete(s.keys, k)
		if len(s.free) < maxFreeWindows {
			s.free = append(s.free, w)
		}
	}
}

// newWindow returns a zeroed ring for a key entering shard s: a recycled
// one when the free list has any, else a fresh allocation. Every ring of
// one limiter has the same geometry, so a reset ring is indistinguishable
// from a new one — the reset matters when the clock steps back onto
// buckets the ring last used. Callers hold the shard lock.
func (l *Limiter) newWindow(s *limiterShard) *Window {
	n := len(s.free)
	if n == 0 {
		return NewWindow(l.window, l.buckets)
	}
	w := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	w.Reset()
	return w
}
