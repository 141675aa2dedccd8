// Package keytab is the bounded byte-keyed table under the per-identity
// stores: signal.Limiter's shards, account.Store and entitygraph.Graph. A
// table maps short byte keys to stable slots in a slab, each slot holding
// its key's bytes in place beside the caller's value, so inserting a key
// copies it into the slab instead of cloning it onto the heap.
//
// Layout. The slab is a slice of entries (value and key bytes); a
// deleted entry's slot goes on a free list and the next insert takes it,
// so a table that has reached its working size inserts and deletes without
// allocating. Keys up to inlineKey bytes live in the entry; a longer key
// costs one allocation, a copy in a side slice. The index is open
// addressing with linear
// probing over a power-of-two array of (hash tag, slot) words, kept at most
// half full and doubled when it would pass that. Delete shifts the rest of
// the probe run back instead of leaving a tombstone, so a table under
// constant insert/delete churn probes as short as a freshly built one.
//
// Hashing is hash/maphash under a seed drawn per table: a client that
// chooses its own keys cannot aim them at one probe run. Nothing the
// callers observe depends on the seed — iteration is by slot, and the one
// ordering the table imposes, EvictOldest's, is by the owner's rank and then
// key bytes.
//
// A Table is not safe for concurrent use; its owners lock around it.
package keytab

import (
	"bytes"
	"hash/maphash"
	"math/bits"
	"slices"
	"unsafe"
)

// inlineKey is how many key bytes an entry holds in place: every
// fingerprint, IPv4 and session key the gate builds ("fp:" and 16 hex
// digits is 19 bytes), in a 32-byte key cell. An IPv6 address key ("ip:"
// and up to 39 characters) is a long key.
const inlineKey = 30

// entry is one slot of the slab. n is the key's length, or inlineKey+1 when
// the key lives in Table.long.
type entry[V any] struct {
	val  V
	n    uint8
	used bool
	key  [inlineKey]byte
}

// Table is a byte-keyed table of V values in stable slots.
type Table[V any] struct {
	seed  maphash.Seed
	index []uint64 // hash tag << 32 | slot+1; 0 is an empty bucket
	slots []entry[V]
	long  [][]byte // keys longer than inlineKey, by slot; nil until one arrives
	free  []int32
	live  int
	limit int
	cands []cand // EvictOldest's scratch
}

// New returns an empty table whose slab grows a quarter at a time and, as
// long as the caller keeps at most limit keys, never past limit slots.
func New[V any](limit int) *Table[V] {
	return &Table[V]{seed: maphash.MakeSeed(), index: make([]uint64, 16), limit: max(limit, 1)}
}

// Len reports how many keys the table holds.
func (t *Table[V]) Len() int { return t.live }

// Slots reports the slab's length: every slot index below it is live or free.
func (t *Table[V]) Slots() int { return len(t.slots) }

// Used reports whether slot s holds a key.
func (t *Table[V]) Used(s int32) bool { return t.slots[s].used }

// At returns slot s's value. A freed slot keeps the value it last held
// until the caller overwrites it: an owner whose values hold buffers reuses
// them on the slot's next insert. The pointer is valid until the next
// Insert, which may move the slab.
func (t *Table[V]) At(s int32) *V { return &t.slots[s].val }

// Find returns key's slot.
func (t *Table[V]) Find(key []byte) (int32, bool) {
	h := uint32(maphash.Bytes(t.seed, key))
	mask := uint32(len(t.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return 0, false
		}
		if uint32(e>>32) == h && bytes.Equal(t.key(int32(e)-1), key) {
			return int32(e) - 1, true
		}
	}
}

// FindString is Find for a string key, without copying it.
func (t *Table[V]) FindString(key string) (int32, bool) { return t.Find(view(key)) }

// Insert adds key, which must be absent, and returns its slot: a freed one
// when there is one, else a new one at the end of the slab. The slot's
// value is whatever it last held; the caller sets it.
func (t *Table[V]) Insert(key []byte) int32 {
	var s int32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if len(t.slots) == cap(t.slots) {
			grown := make([]entry[V], len(t.slots), max(min(cap(t.slots)+cap(t.slots)/4+16, t.limit), len(t.slots)+1))
			copy(grown, t.slots)
			t.slots = grown
		}
		s = int32(len(t.slots))
		t.slots = t.slots[:s+1]
	}
	e := &t.slots[s]
	e.used = true
	if len(key) <= inlineKey {
		e.n = uint8(copy(e.key[:], key))
	} else {
		e.n = inlineKey + 1
		if t.long == nil {
			t.long = make([][]byte, 0, cap(t.slots))
		}
		for len(t.long) <= int(s) {
			t.long = append(t.long, nil)
		}
		t.long[s] = bytes.Clone(key)
	}
	t.live++
	if 2*t.live > len(t.index) {
		t.rehash(2 * len(t.index))
	}
	t.place(uint32(maphash.Bytes(t.seed, key)), s)
	return s
}

// InsertString is Insert for a string key.
func (t *Table[V]) InsertString(key string) int32 { return t.Insert(view(key)) }

// Delete frees slot s, which must be live, and drops its key.
func (t *Table[V]) Delete(s int32) {
	e := &t.slots[s]
	mask := uint32(len(t.index) - 1)
	i := uint32(maphash.Bytes(t.seed, t.key(s))) & mask
	for int32(t.index[i]) != s+1 {
		i = (i + 1) & mask
	}
	// Backward shift: walk the rest of the run and pull back every word
	// whose home bucket is not between the hole and its position, so no
	// lookup ever has to step over a deleted word.
	for j := i; ; {
		j = (j + 1) & mask
		w := t.index[j]
		if w == 0 {
			break
		}
		if home := uint32(w>>32) & mask; (j-home)&mask >= (j-i)&mask {
			t.index[i] = w
			i = j
		}
	}
	t.index[i] = 0
	if e.n > inlineKey {
		t.long[s] = nil
	}
	e.used, e.n = false, 0
	t.free = append(t.free, s)
	t.live--
}

// CompareKeys orders two live slots by their keys' bytes.
func (t *Table[V]) CompareKeys(a, b int32) int { return bytes.Compare(t.key(a), t.key(b)) }

// key is slot s's key bytes, a view into the table.
func (t *Table[V]) key(s int32) []byte {
	e := &t.slots[s]
	if e.n > inlineKey {
		return t.long[s]
	}
	return e.key[:e.n]
}

// place writes slot s into the first empty bucket of hash h's run.
func (t *Table[V]) place(h uint32, s int32) {
	mask := uint32(len(t.index) - 1)
	i := h & mask
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = uint64(h)<<32 | uint64(s+1)
}

// rehash rebuilds the index at size n from the hash tags it holds.
func (t *Table[V]) rehash(n int) {
	old := t.index
	t.index = make([]uint64, n)
	for _, w := range old {
		if w != 0 {
			t.place(uint32(w>>32), int32(w)-1)
		}
	}
}

// cand is one live slot as EvictOldest's selection sees it.
type cand struct {
	age, tie int64
	slot     int32
}

// EvictOldest deletes the k live keys that rank oldest: rank returns an age
// and a tie-break for a value, and the order is age, then tie-break, then
// key bytes — a strict total order, so the victim set is a function of the
// contents alone. An owner with a single age returns 0 as the tie-break.
// drop, when non-nil, sees each victim before its slot is freed. It
// selects rather than sorts: after its first call has sized the scratch it
// allocates nothing beyond the free list's growth, and it costs one call of
// rank per live key plus an expected linear partition.
func (t *Table[V]) EvictOldest(k int, rank func(*V) (age, tie int64), drop func(s int32, v *V)) {
	k = min(k, t.live)
	if k <= 0 {
		return
	}
	c := slices.Grow(t.cands[:0], t.live)
	for i := range t.slots {
		if e := &t.slots[i]; e.used {
			age, tie := rank(&e.val)
			c = append(c, cand{age: age, tie: tie, slot: int32(i)})
		}
	}
	t.cands = c
	if k < len(c) {
		t.selectOldest(c, k)
	}
	for _, v := range c[:k] {
		if drop != nil {
			drop(v.slot, &t.slots[v.slot].val)
		}
		t.Delete(v.slot)
	}
}

// older is the eviction order: age, then tie-break, then key.
func (t *Table[V]) older(a, b cand) bool {
	if a.age != b.age {
		return a.age < b.age
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return t.CompareKeys(a.slot, b.slot) < 0
}

// selectOldest reorders c so that c[:k] holds its k oldest entries, in no
// particular order (0 < k < len(c)). It is a quickselect on a
// median-of-three pivot; a run of bad pivots falls back to sorting what is
// left, which keeps the worst case at n log n for any arrival pattern.
func (t *Table[V]) selectOldest(c []cand, k int) {
	lo, hi := 0, len(c)
	for budget := 2 * bits.Len(uint(len(c))); hi-lo > 12 && budget > 0; budget-- {
		a, b, p := c[lo], c[hi-1], c[lo+(hi-lo)/2]
		if t.older(b, a) {
			a, b = b, a
		}
		if t.older(p, a) {
			p = a
		} else if t.older(b, p) {
			p = b
		}
		i, j := lo, hi-1
		for i <= j {
			for t.older(c[i], p) {
				i++
			}
			for t.older(p, c[j]) {
				j--
			}
			if i <= j {
				c[i], c[j] = c[j], c[i]
				i++
				j--
			}
		}
		// c[lo:j+1] ≤ p ≤ c[i:hi], and anything between is p itself.
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
	slices.SortFunc(c[lo:hi], func(a, b cand) int {
		if t.older(a, b) {
			return -1
		}
		return 1
	})
}

// view is key's bytes without a copy. The table only reads them, and
// keeps a copy of its own on insert.
func view(key string) []byte { return unsafe.Slice(unsafe.StringData(key), len(key)) }
