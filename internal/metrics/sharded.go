package metrics

import (
	"sync"
	"sync/atomic"
)

// This file holds the concurrent accumulators: a keyed counter and the
// counterpart of Running. Both stripe their state across mutex-guarded
// shards so writers on different keys (or different pool workers) rarely
// contend. They exist for the replicate runner's worker pool; inside a
// deterministic simulation the unsharded Running remains the right choice.

// shardCount is the stripe width. 32 comfortably exceeds any worker-pool
// size the runner spawns (GOMAXPROCS-bounded) while keeping the zero-key
// scan in Snapshot cheap.
const shardCount = 32

// fnv1a hashes a key to a shard index without allocating.
func fnv1a(key string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime
	}
	return h
}

// ShardedKeyedCounter counts events per string key and is safe for
// concurrent use: keys are striped across locked shards, so goroutines
// incrementing different keys proceed in parallel.
type ShardedKeyedCounter struct {
	shards [shardCount]struct {
		mu     sync.Mutex
		counts map[string]uint64
	}
}

// NewShardedKeyedCounter returns an empty concurrent keyed counter.
func NewShardedKeyedCounter() *ShardedKeyedCounter {
	c := &ShardedKeyedCounter{}
	for i := range c.shards {
		c.shards[i].counts = make(map[string]uint64)
	}
	return c
}

// Inc adds one to key. Safe for concurrent use.
func (c *ShardedKeyedCounter) Inc(key string) { c.Add(key, 1) }

// Add adds delta to key (negative deltas are ignored; counters are
// monotone). Safe for concurrent use.
func (c *ShardedKeyedCounter) Add(key string, delta int) {
	if delta <= 0 {
		return
	}
	s := &c.shards[fnv1a(key)%shardCount]
	s.mu.Lock()
	s.counts[key] += uint64(delta)
	s.mu.Unlock()
}

// Get returns the count for key.
func (c *ShardedKeyedCounter) Get(key string) uint64 {
	s := &c.shards[fnv1a(key)%shardCount]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[key]
}

// Total sums all counts.
func (c *ShardedKeyedCounter) Total() uint64 {
	var total uint64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, v := range s.counts {
			total += v
		}
		s.mu.Unlock()
	}
	return total
}

// Snapshot returns a point-in-time copy of all counts. The copy is
// internally consistent per shard, not across shards; for exact totals
// quiesce writers first (the runner reads only after its pool drains).
func (c *ShardedKeyedCounter) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, v := range s.counts {
			out[k] = v
		}
		s.mu.Unlock()
	}
	return out
}

// ShardedRunning is a Running accumulator safe for concurrent use. Each
// Observe locks one stripe chosen by a cheap rotating index, so pool
// workers observing simultaneously land on different stripes most of the
// time. Summary merges the stripes; the merged moments are exact, but
// their floating-point rounding depends on the observation interleaving —
// use plain Running (merged in a canonical order) where bit-stable output
// matters.
type ShardedRunning struct {
	next   atomic.Uint32 // rotating stripe cursor
	shards [shardCount]struct {
		mu  sync.Mutex
		run Running
	}
}

// NewShardedRunning returns an empty concurrent accumulator.
func NewShardedRunning() *ShardedRunning { return &ShardedRunning{} }

// ObserveAt adds a sample to the stripe for the given hint (e.g. a worker
// index). Distinct hints never contend modulo the stripe width.
func (r *ShardedRunning) ObserveAt(hint int, v float64) {
	if hint < 0 {
		hint = -hint
	}
	s := &r.shards[uint32(hint)%shardCount]
	s.mu.Lock()
	s.run.Observe(v)
	s.mu.Unlock()
}

// Observe adds a sample on a rotating stripe. Safe for concurrent use.
func (r *ShardedRunning) Observe(v float64) {
	r.ObserveAt(int(r.next.Add(1)-1), v)
}

// Summary merges every stripe into one Running snapshot.
func (r *ShardedRunning) Summary() Running {
	var out Running
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		out.Merge(s.run)
		s.mu.Unlock()
	}
	return out
}
