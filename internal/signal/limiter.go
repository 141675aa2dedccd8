package signal

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"funabuse/internal/keytab"
)

// Limiter is a sharded keyed sliding-window rate limiter: the concurrent,
// memory-bounded replacement for serialising gate decisions behind one
// mutex over per-key timestamp slices. Keys are lock-striped across
// shards, each key's in-window count lives in a constant-size bucket ring
// (see Window), and shards periodically evict keys with no in-window
// events, so memory is proportional to the set of recently active keys —
// and never more than limiterKeys of them (see makeRoom for who goes
// first when a shard is full of in-window keys).
//
// Each shard is a keytab.Table of rings: the key's bytes and its ring share
// a slot, and a slot freed by a sweep or an eviction keeps its ring's
// buffers for the next key, so once a shard has reached its working size a
// new key costs no allocation at all. What a burst leaves behind is bounded
// by sweep: the slab keeps its largest size (about 120 B a slot), but spare
// rings (about 400 B each at the default geometry) beyond what the shard's
// live keys and recent arrivals need go back to the garbage collector.
//
// Semantics match mitigate.KeyedLimiter: at most limit events per key in
// any trailing window, and a denied attempt is counted but does not
// consume allowance. The only divergence is expiry granularity — events
// age out within one bucket width of the exact window edge.
//
// Limiter is safe for concurrent use.
type Limiter struct {
	window   time.Duration
	limit    int
	buckets  int
	perShard int // key budget of one shard: limiterKeys split over the shards
	shards   []limiterShard
	mask     uint64
	denials  atomic.Uint64
}

// limiterShard is one lock stripe, sized to exactly one 64-byte cache line
// (mutex 8 + table 8 + ops 8 + inserts 8 + pad 32; a test pins the
// multiple) so neighbouring shards' hot locks never share one.
type limiterShard struct {
	mu      sync.Mutex
	keys    *keytab.Table[Window]
	ops     int
	inserts int // keys inserted since the last sweep
	_       [32]byte
}

// LimiterConfig tunes a Limiter; the zero value of every optional field
// selects a sensible default.
type LimiterConfig struct {
	// Window is the trailing window; non-positive means one hour.
	Window time.Duration
	// Limit is the per-key allowance per window; values < 1 are clamped.
	Limit int

	// buckets (the ring size per key, default DefaultWindowBuckets) and
	// shards (the lock-stripe count, rounded up to a power of two, default
	// DefaultShards) are set only by in-package tests, to reach ring
	// expiry and per-shard budgets in a few operations.
	buckets, shards int
}

// limiterKeys is the key budget of one Limiter, split evenly over its
// shards: 4,096 keys a shard at the default shard count, about 32 MiB of
// default-geometry rings, slots and index when full. It is set far above
// what any seeded scenario keeps in-window, so the budget bounds a flood
// and changes no verdict of theirs.
const limiterKeys = 1 << 16

// maxSpareRings is how many spare rings a shard keeps after a sweep beyond
// those its live keys and recent arrivals need: 256 default-geometry rings
// are ~100 KiB a shard.
const maxSpareRings = 256

// DefaultShards is the default lock-stripe count for sharded containers.
const DefaultShards = 16

// sweepEvery is how many shard operations pass between idle-key sweeps.
const sweepEvery = 1024

// NewLimiter returns a sharded limiter.
func NewLimiter(cfg LimiterConfig) *Limiter {
	if cfg.Window <= 0 {
		cfg.Window = time.Hour
	}
	if cfg.Limit < 1 {
		cfg.Limit = 1
	}
	if cfg.buckets <= 0 {
		cfg.buckets = DefaultWindowBuckets
	}
	n := shardCount(cfg.shards, DefaultShards)
	l := &Limiter{
		window:   cfg.Window,
		limit:    cfg.Limit,
		buckets:  cfg.buckets,
		perShard: max(limiterKeys/n, 1),
		shards:   make([]limiterShard, n),
		mask:     uint64(n - 1),
	}
	for i := range l.shards {
		l.shards[i].keys = keytab.New[Window](l.perShard)
	}
	return l
}

// Allow records an attempt for key at now and reports whether it is
// within the limit.
func (l *Limiter) Allow(key string, now time.Time) bool {
	// A read-only view of key's bytes: the shard hashes and compares them
	// and copies them on insert, and keeps no reference.
	return l.AllowBytes(unsafe.Slice(unsafe.StringData(key), len(key)), now)
}

// AllowBytes is Allow for a key assembled in a reusable byte buffer, so
// per-request callers can build prefixed keys ("pf:<sid>") into scratch
// space. The shard's table copies a new key into its slot and keeps no
// reference to the buffer.
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

// allowBytesLocked runs one attempt against a shard, the body every entry
// point shares (sweep cadence included). Callers hold the shard lock.
func (l *Limiter) allowBytesLocked(s *limiterShard, key []byte, now time.Time) bool {
	s.ops++
	if s.ops >= sweepEvery {
		s.ops = 0
		s.sweep(now)
	}
	slot, ok := s.keys.Find(key)
	if !ok {
		if s.keys.Len() >= l.perShard {
			s.makeRoom(now, l.perShard*3/4)
		}
		slot = s.keys.Insert(key)
		s.inserts++
		l.resetWindow(s.keys.At(slot))
	}
	return s.keys.At(slot).admit(now, l.limit)
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
		total += s.keys.Len()
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

// sweep removes the shard's idle keys. A freed slot keeps its ring for the
// next key, but the spare rings may not outnumber the live keys plus the
// keys that arrived since the previous sweep plus maxSpareRings, so ring
// memory stays proportional to the recently active keys: a population
// that turns over at a steady size, or swings about one, reuses every
// ring, and a shard whose traffic has fallen off hands the rest of a
// burst's rings back. Callers hold the shard lock.
func (s *limiterShard) sweep(now time.Time) {
	spare := 0
	for i := range int32(s.keys.Slots()) {
		w := s.keys.At(i)
		if s.keys.Used(i) {
			if !w.Empty(now) {
				continue
			}
			s.keys.Delete(i)
		}
		if w.counts != nil {
			spare++
		}
	}
	keep := s.keys.Len() + s.inserts + maxSpareRings
	s.inserts = 0
	for i := int32(0); spare > keep; i++ {
		if w := s.keys.At(i); !s.keys.Used(i) && w.counts != nil {
			w.counts, w.nums = nil, nil
			spare--
		}
	}
}

// makeRoom brings a shard at its key budget down to keep keys: the idle
// ones go first, then — only while more than keep are still in-window —
// those with the fewest in-window events, among equals the least recently
// advanced, then by key. A key at its limit is thus the last to go: a
// flood of fresh keys cannot push it out and hand it a fresh allowance.
// Callers hold the shard lock.
func (s *limiterShard) makeRoom(now time.Time, keep int) {
	s.sweep(now)
	s.keys.EvictOldest(s.keys.Len()-keep, func(w *Window) (int64, int64) {
		return int64(w.Count(now)), w.head
	}, nil)
}

// resetWindow readies a slot's ring for a new key: a slot whose ring a
// sweep handed back gets a new one, a slot that kept its ring keeps its
// buffers, and every ring of one limiter has the same geometry, so a reset
// ring is indistinguishable from a new one — the reset matters when the
// clock steps back onto buckets the ring last used.
func (l *Limiter) resetWindow(w *Window) {
	if w.counts == nil {
		*w = *NewWindow(l.window, l.buckets)
		return
	}
	w.Reset()
}
