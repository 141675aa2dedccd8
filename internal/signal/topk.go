package signal

import (
	"cmp"
	"slices"
)

// TopEntry is one heavy hitter reported by TopK.
type TopEntry struct {
	Key string
	// Count is the estimated frequency (never an undercount).
	Count uint64
	// Err bounds the overcount: the true frequency is at least Count-Err.
	Err uint64
}

// TopK tracks the k most frequent keys of a stream with the space-saving
// algorithm: exactly k counters regardless of the key space. When an
// untracked key arrives and the table is full it replaces the minimum
// counter, inheriting its count as the error bound. Any key whose true
// frequency exceeds total/k is guaranteed to be tracked.
//
// TopK is not safe for concurrent use; Engine shards and locks around
// per-shard tables.
type TopK struct {
	k     int
	items map[string]*tkItem
	heap  []*tkItem // min-heap on Count
}

type tkItem struct {
	key   string
	count uint64
	err   uint64
	pos   int // index in heap
}

// NewTopK returns a tracker for the k heaviest keys; k < 1 is clamped
// to 1.
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, items: make(map[string]*tkItem, k)}
}

// Offer folds n occurrences of key into the tracker.
func (t *TopK) Offer(key string, n uint64) {
	if n == 0 {
		return
	}
	if it, ok := t.items[key]; ok {
		it.count += n
		t.siftDown(it.pos)
		return
	}
	if len(t.heap) < t.k {
		it := &tkItem{key: key, count: n, pos: len(t.heap)}
		t.items[key] = it
		t.heap = append(t.heap, it)
		t.siftUp(it.pos)
		return
	}
	// Evict the minimum: the newcomer inherits its count as error.
	min := t.heap[0]
	delete(t.items, min.key)
	t.items[key] = min
	min.err = min.count
	min.count += n
	min.key = key
	t.siftDown(0)
}

// Count returns the tracked estimate for key and whether key is tracked.
func (t *TopK) Count(key string) (uint64, bool) {
	it, ok := t.items[key]
	if !ok {
		return 0, false
	}
	return it.count, true
}

// Top returns the tracked keys sorted by descending count (ties by
// ascending key), at most n entries; n <= 0 returns all tracked keys.
func (t *TopK) Top(n int) []TopEntry {
	out := make([]TopEntry, 0, len(t.heap))
	for _, it := range t.heap {
		out = append(out, TopEntry{Key: it.key, Count: it.count, Err: it.err})
	}
	sortTopEntries(out)
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Merge folds another tracker of identical capacity into this one using
// the mergeable-summaries rule for space-saving sketches: a key tracked on
// both sides sums counts and error bounds; a key absent from one side is
// assumed to carry that side's minimum tracked count — the largest
// frequency it could have accumulated without being tracked — added to
// both the estimate and the error bound, so merged estimates never
// undercount the union stream. The combined entries are re-ranked and the
// k heaviest kept, rebuilt in canonical (count-descending, key-ascending)
// order so the merged table is deterministic regardless of either input's
// internal layout. It reports whether the capacities matched (mismatched
// trackers are left untouched).
func (t *TopK) Merge(o *TopK) bool {
	if o == nil || o.k != t.k {
		return false
	}
	minT, minO := t.floor(), o.floor()
	entries := make([]TopEntry, 0, len(t.items)+len(o.items))
	for k, it := range t.items {
		e := TopEntry{Key: k, Count: it.count, Err: it.err}
		if oit, ok := o.items[k]; ok {
			e.Count += oit.count
			e.Err += oit.err
		} else {
			e.Count += minO
			e.Err += minO
		}
		entries = append(entries, e)
	}
	for k, oit := range o.items {
		if _, ok := t.items[k]; ok {
			continue
		}
		entries = append(entries, TopEntry{Key: k, Count: oit.count + minT, Err: oit.err + minT})
	}
	sortTopEntries(entries)
	if len(entries) > t.k {
		entries = entries[:t.k]
	}
	t.rebuild(entries)
	return true
}

// Clone returns a deep copy of the tracker in canonical layout.
func (t *TopK) Clone() *TopK {
	c := &TopK{k: t.k}
	c.rebuild(t.Top(0))
	return c
}

// floor is the minimum tracked count while the table is full — the
// largest frequency an untracked key could have — and 0 while slots
// remain free.
func (t *TopK) floor() uint64 {
	if len(t.heap) < t.k {
		return 0
	}
	return t.heap[0].count
}

// rebuild replaces the table with the given entries, restoring the item
// map and min-heap deterministically from their order. The items share one
// backing array; Offer recycles them in place and allocates only newcomers.
func (t *TopK) rebuild(entries []TopEntry) {
	t.items = make(map[string]*tkItem, len(entries))
	t.heap = slices.Grow(t.heap[:0], len(entries))
	items := make([]tkItem, len(entries))
	for i, e := range entries {
		it := &items[i]
		*it = tkItem{key: e.Key, count: e.Count, err: e.Err, pos: len(t.heap)}
		t.items[e.Key] = it
		t.heap = append(t.heap, it)
		t.siftUp(it.pos)
	}
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.heap[parent].count <= t.heap[i].count {
			return
		}
		t.swap(parent, i)
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(t.heap) && t.heap[l].count < t.heap[least].count {
			least = l
		}
		if r := 2*i + 2; r < len(t.heap) && t.heap[r].count < t.heap[least].count {
			least = r
		}
		if least == i {
			return
		}
		t.swap(least, i)
		i = least
	}
}

func (t *TopK) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.heap[i].pos = i
	t.heap[j].pos = j
}

// sortTopEntries applies the canonical ranking: count descending, ties by
// ascending key.
func sortTopEntries(s []TopEntry) {
	slices.SortFunc(s, func(a, b TopEntry) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Key, b.Key)
	})
}
