package keytab

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"testing"

	"funabuse/internal/simrand"
)

// TestTableMatchesMap is the model test: seeded streams of inserts, finds,
// deletes and evictions over a key space that mixes inline keys, keys at
// the inline limit and long ones, against a Go map. After every operation
// the table must agree with the map on membership, on every live key's
// value and on Len; every few hundred operations every index word must
// still be reachable from its home bucket without crossing an empty one —
// the invariant backward-shift deletion keeps.
func TestTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := simrand.New(seed)
		tab := New[int](64)
		ref := make(map[string]int)
		slot := make(map[string]int32)
		key := func() string {
			n := rng.Intn(400)
			switch n % 3 {
			case 0:
				return fmt.Sprintf("fp:%x", n)
			case 1:
				return fmt.Sprintf("%0*d", inlineKey, n) // exactly at the limit
			default:
				return strings.Repeat("long-", 12) + fmt.Sprint(n)
			}
		}
		for op := range 20000 {
			k := key()
			s, ok := tab.FindString(k)
			want, inRef := ref[k]
			if ok != inRef || (ok && (*tab.At(s) != want || s != slot[k] || string(tab.key(s)) != k)) {
				t.Fatalf("seed %d op %d: Find(%q) = slot %d, %v; map says %v (value %d)", seed, op, k, s, ok, inRef, want)
			}
			switch r := rng.Intn(10); {
			case r < 5 && !ok:
				s = tab.Insert([]byte(k))
				*tab.At(s) = op
				ref[k], slot[k] = op, s
			case r < 8 && ok:
				tab.Delete(s)
				delete(ref, k)
				delete(slot, k)
			case r == 9 && tab.Len() > 0:
				n := 1 + rng.Intn(tab.Len())
				tab.EvictOldest(n, func(v *int) (int64, int64) { return int64(*v), 0 }, func(s int32, v *int) {
					if !tab.Used(s) {
						t.Fatalf("seed %d op %d: eviction offered free slot %d", seed, op, s)
					}
					k := string(tab.key(s))
					delete(ref, k)
					delete(slot, k)
				})
			}
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len %d, map holds %d", seed, op, tab.Len(), len(ref))
			}
			if op%500 == 0 {
				checkIndex(t, tab)
			}
		}
		for k, v := range ref {
			if s, ok := tab.FindString(k); !ok || *tab.At(s) != v {
				t.Fatalf("seed %d: %q lost", seed, k)
			}
		}
	}
}

// checkIndex verifies that every index word names a live slot whose hash it
// carries and sits in an unbroken run from its home bucket.
func checkIndex[V any](t *testing.T, tab *Table[V]) {
	t.Helper()
	mask := uint32(len(tab.index) - 1)
	words := 0
	for i, w := range tab.index {
		if w == 0 {
			continue
		}
		words++
		s := int32(w) - 1
		if !tab.Used(s) || uint32(maphash.Bytes(tab.seed, tab.key(s))) != uint32(w>>32) {
			t.Fatalf("bucket %d names slot %d, live %v", i, s, tab.Used(s))
		}
		for j := uint32(w>>32) & mask; j != uint32(i); j = (j + 1) & mask {
			if tab.index[j] == 0 {
				t.Fatalf("bucket %d is unreachable: empty bucket %d in its run", i, j)
			}
		}
	}
	if words != tab.Len() || 2*tab.Len() > len(tab.index) {
		t.Fatalf("index holds %d words in %d buckets for %d keys", words, len(tab.index), tab.Len())
	}
}

// TestEvictOldestMatchesSort holds the selection to a full sort on the
// shapes that defeat careless pivots — all ages equal (every compare falls
// through to the tie-break and the key), sorted, reversed, organ pipe, two
// values — at every k that matters around the cut. The tie-break takes
// three values, so equal ages are split by it and equal pairs by the key.
func TestEvictOldestMatchesSort(t *testing.T) {
	shapes := map[string]func(i, n int) int64{
		"equal":     func(i, n int) int64 { return 7 },
		"ascending": func(i, n int) int64 { return int64(i) },
		"reversed":  func(i, n int) int64 { return int64(n - i) },
		"organpipe": func(i, n int) int64 { return int64(min(i, n-i)) },
		"twovalues": func(i, n int) int64 { return int64(i % 2) },
		"sawtooth":  func(i, n int) int64 { return int64(i % 17) },
		"scattered": func(i, n int) int64 { return int64(i*7919%n) / 3 },
	}
	type item struct {
		age, tie int64
		key      string
	}
	for name, at := range shapes {
		for _, n := range []int{2, 3, 12, 13, 64, 1000, 4097} {
			for _, k := range []int{1, n / 4, n / 2, n - 1, n} {
				if k < 1 {
					continue
				}
				tab := New[item](n)
				var all []item
				for i := range n {
					it := item{at(i, n), int64(i * 7 % 3), fmt.Sprintf("k%05d", i*31%n)} // a permutation for every n used: 31 ∤ n
					*tab.At(tab.InsertString(it.key)) = it
					all = append(all, it)
				}
				slices.SortFunc(all, func(a, b item) int {
					return cmp.Or(cmp.Compare(a.age, b.age), cmp.Compare(a.tie, b.tie), strings.Compare(a.key, b.key))
				})
				var got []string
				tab.EvictOldest(k, func(v *item) (int64, int64) { return v.age, v.tie }, func(s int32, _ *item) { got = append(got, string(tab.key(s))) })
				var want []string
				for _, it := range all[:k] {
					want = append(want, it.key)
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) || tab.Len() != n-k {
					t.Fatalf("%s n=%d k=%d: evicted set differs from the sorted prefix", name, n, k)
				}
			}
		}
	}
}

// TestChurnSteadyStateAllocs pins the point of the table: once a bounded
// owner has reached its working size, inserting a fresh key and evicting
// old ones allocates nothing — the key lands in a freed slot's cell, the
// index word in a bucket a delete emptied.
func TestChurnSteadyStateAllocs(t *testing.T) {
	const budget, runs = 256, 2000
	tab := New[int64](budget)
	keys := make([][]byte, 4*budget+runs+1)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "fp:%016x", i)
	}
	next := 0
	insert := func() {
		if tab.Len() >= budget {
			tab.EvictOldest(budget/4, func(v *int64) (int64, int64) { return *v, 0 }, nil)
		}
		*tab.At(tab.Insert(keys[next])) = int64(next)
		next++
	}
	for range 4 * budget {
		insert()
	}
	if avg := testing.AllocsPerRun(runs, insert); avg != 0 {
		t.Fatalf("a fresh key at budget allocates %v/op, want 0", avg)
	}
	if tab.Len() > budget || tab.Slots() > budget {
		t.Fatalf("table holds %d keys in %d slots, budget %d", tab.Len(), tab.Slots(), budget)
	}
}
