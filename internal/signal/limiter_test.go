package signal

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"funabuse/internal/keytab"
	"funabuse/internal/simrand"
)

// TestAllowBytesMatchesAllow drives the same key sequence through the
// string and byte entry points on twin limiters and requires identical
// verdicts, denial totals and tracked-key counts — the contract that lets
// the gate's hot path build keys in scratch space.
func TestAllowBytesMatchesAllow(t *testing.T) {
	a := NewLimiter(LimiterConfig{Window: time.Minute, Limit: 3, shards: 4})
	b := NewLimiter(LimiterConfig{Window: time.Minute, Limit: 3, shards: 4})
	buf := make([]byte, 0, 32)
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("pf:user-%d", i%17)
		now := t0.Add(time.Duration(i) * time.Second)
		want := a.Allow(key, now)
		buf = append(buf[:0], key...)
		if got := b.AllowBytes(buf, now); got != want {
			t.Fatalf("op %d key %q: AllowBytes = %v, Allow = %v", i, key, got, want)
		}
	}
	if a.Denials() != b.Denials() {
		t.Fatalf("denials diverge: %d vs %d", a.Denials(), b.Denials())
	}
	if a.TrackedKeys() != b.TrackedKeys() {
		t.Fatalf("tracked keys diverge: %d vs %d", a.TrackedKeys(), b.TrackedKeys())
	}
}

// TestAllowBatchMatchesSequential replays the same key stream through
// AllowBatch (several batch sizes) and through per-key AllowBytes calls in
// index order, and requires bit-identical verdicts.
func TestAllowBatchMatchesSequential(t *testing.T) {
	for _, batch := range []int{1, 7, 64} {
		seq := NewLimiter(LimiterConfig{Window: time.Minute, Limit: 4, shards: 8})
		bat := NewLimiter(LimiterConfig{Window: time.Minute, Limit: 4, shards: 8})
		const total = 512
		keys := make([][]byte, total)
		for i := range keys {
			// A mix of hot keys (repeat within and across batches) and
			// one-shot keys, spread across shards.
			keys[i] = []byte(fmt.Sprintf("path:/p/%d", i%13))
			if i%5 == 0 {
				keys[i] = []byte(fmt.Sprintf("pf:cold-%d", i))
			}
		}
		want := make([]bool, total)
		got := make([]bool, total)
		for start := 0; start < total; start += batch {
			end := min(start+batch, total)
			now := t0.Add(time.Duration(start) * time.Second)
			for i := start; i < end; i++ {
				want[i] = seq.AllowBytes(keys[i], now)
			}
			bat.AllowBatch(now, keys[start:end], got[start:end])
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d op %d key %q: batch = %v, sequential = %v",
					batch, i, keys[i], got[i], want[i])
			}
		}
		if seq.Denials() != bat.Denials() {
			t.Fatalf("batch=%d denials diverge: %d vs %d", batch, seq.Denials(), bat.Denials())
		}
	}

	// Seeded random streams: batches of random size over a key set that
	// repeats within and across batches, a clock that advances, stalls,
	// steps back and jumps past the window, and the automatic sweeps firing
	// on both twins.
	cfg := LimiterConfig{Window: 10 * time.Second, Limit: 3, buckets: 8, shards: 4}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := simrand.New(seed)
		seq, bat := NewLimiter(cfg), NewLimiter(cfg)
		now := t0
		for round := 0; round < 3000; round++ {
			switch r := rng.Intn(20); {
			case r < 12:
				now = now.Add(time.Duration(rng.Intn(1500)) * time.Millisecond)
			case r < 14:
				now = now.Add(-time.Duration(rng.Intn(15000)) * time.Millisecond)
			case r < 15:
				now = now.Add(time.Duration(10+rng.Intn(30)) * time.Second)
			}
			keys := make([][]byte, 1+rng.Intn(16))
			for i := range keys {
				keys[i] = []byte("k:" + itoa(rng.Intn(40)))
			}
			got := make([]bool, len(keys))
			bat.AllowBatch(now, keys, got)
			for i, k := range keys {
				if want := seq.AllowBytes(k, now); got[i] != want {
					t.Fatalf("seed %d round %d key %d %q: batch = %v, sequential = %v", seed, round, i, k, got[i], want)
				}
			}
			if seq.Denials() != bat.Denials() || seq.TrackedKeys() != bat.TrackedKeys() {
				t.Fatalf("seed %d round %d: denials %d vs %d, tracked keys %d vs %d", seed, round,
					bat.Denials(), seq.Denials(), bat.TrackedKeys(), seq.TrackedKeys())
			}
		}
		if seq.Denials() == 0 {
			t.Fatalf("seed %d: stream denied nothing", seed)
		}
	}
}

// TestAllowBytesSteadyStateAllocs pins the zero-alloc contract: once a
// key's window exists, AllowBytes and AllowBatch allocate nothing.
func TestAllowBytesSteadyStateAllocs(t *testing.T) {
	l := NewLimiter(LimiterConfig{Window: time.Hour, Limit: 1 << 30})
	key := []byte("pf:warm")
	l.AllowBytes(key, t0) // insert outside the measured region
	if avg := testing.AllocsPerRun(256, func() {
		l.AllowBytes(key, t0)
	}); avg != 0 {
		t.Fatalf("AllowBytes allocates %v/op on a warm key", avg)
	}

	keys := [][]byte{[]byte("pf:w0"), []byte("pf:w1"), []byte("pf:w2"), []byte("pf:w3")}
	out := make([]bool, len(keys))
	l.AllowBatch(t0, keys, out) // warm the keys and the hash scratch
	if avg := testing.AllocsPerRun(256, func() {
		l.AllowBatch(t0, keys, out)
	}); avg != 0 {
		t.Fatalf("AllowBatch allocates %v/op on warm keys", avg)
	}

	// Evict-then-reinsert: the sweep frees the key's slot with its ring
	// and the reinsert takes both back, so a key returning after its window
	// emptied costs nothing.
	l = NewLimiter(LimiterConfig{Window: time.Minute, Limit: 1 << 30})
	now := t0
	l.AllowBytes(key, now)
	if avg := testing.AllocsPerRun(256, func() {
		now = now.Add(2 * time.Minute)
		l.Sweep(now)
		l.AllowBytes(key, now)
	}); avg != 0 {
		t.Fatalf("AllowBytes allocates %v/op on an evicted key's return, want 0", avg)
	}

	// Rotation at the key budget: every attempt a key never seen before,
	// all of them in-window, so each insert past the budget evicts.
	l = withKeyBudget(NewLimiter(LimiterConfig{Window: time.Minute, Limit: 1 << 30, shards: 1}), 256)
	fresh := make([]byte, 0, 32)
	next := 0
	rotate := func() {
		fresh = strconv.AppendUint(append(fresh[:0], "pf:"...), uint64(next), 16)
		next++
		l.AllowBytes(fresh, t0)
	}
	for range 1024 {
		rotate()
	}
	if avg := testing.AllocsPerRun(2048, rotate); avg != 0 {
		t.Fatalf("AllowBytes allocates %v/op on fresh keys at the key budget, want 0", avg)
	}
	if n := l.TrackedKeys(); n > 256 {
		t.Fatalf("limiter tracks %d keys, budget 256", n)
	}
}

// TestLimiterShardFillsCacheLines pins the false-sharing guard: shards sit
// back to back in one slice, so only a size that is a whole number of
// 64-byte lines keeps one shard's lock off its neighbour's line.
func TestLimiterShardFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(limiterShard{}); size%64 != 0 {
		t.Fatalf("limiterShard is %d bytes, not a multiple of 64", size)
	}
}

// TestLimiterRecycleMatchesFresh is the model test for ring recycling: a
// limiter whose freed slots keep their rings for the next key against a
// twin whose freed slots are emptied before every operation — so every
// insert takes NewWindow, the behaviour before recycling existed. Seeded
// random key/time streams run
// through Allow, AllowBytes and AllowBatch with explicit sweeps (and the
// automatic ones) interleaved; every verdict, the denial totals and the
// tracked-key counts must agree throughout.
func TestLimiterRecycleMatchesFresh(t *testing.T) {
	cfg := LimiterConfig{Window: 10 * time.Second, Limit: 3, buckets: 8, shards: 2}
	for seed := uint64(1); seed <= 5; seed++ {
		rng := simrand.New(seed)
		rec, ref := NewLimiter(cfg), NewLimiter(cfg)
		key := func() []byte { return []byte("rs:" + itoa(rng.Intn(300))) }
		recycled := 0
		now := t0
		for op := 0; op < 20000; op++ {
			now = now.Add(time.Duration(rng.Intn(120)) * time.Millisecond)
			if rng.Intn(40) == 0 {
				// A clock stepping back lands on buckets a recycled ring
				// last used: only a ring that was reset reads as fresh.
				now = now.Add(-time.Duration(rng.Intn(30)) * time.Second)
			}
			for i := range ref.shards {
				forFreeRings(ref.shards[i].keys, func(w *Window) { *w = Window{} })
			}
			for i := range rec.shards {
				forFreeRings(rec.shards[i].keys, func(w *Window) {
					if w.counts != nil {
						recycled++
					}
				})
			}
			switch rng.Intn(10) {
			case 0:
				rec.Sweep(now)
				ref.Sweep(now)
			case 1:
				keys := make([][]byte, 1+rng.Intn(9))
				for i := range keys {
					keys[i] = key()
				}
				got, want := make([]bool, len(keys)), make([]bool, len(keys))
				rec.AllowBatch(now, keys, got)
				ref.AllowBatch(now, keys, want)
				for i := range keys {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d: AllowBatch[%d] %q = %v, fresh rings say %v", seed, op, i, keys[i], got[i], want[i])
					}
				}
			case 2, 3, 4:
				k := string(key())
				if got, want := rec.Allow(k, now), ref.Allow(k, now); got != want {
					t.Fatalf("seed %d op %d: Allow(%q) = %v, fresh rings say %v", seed, op, k, got, want)
				}
			default:
				k := key()
				if got, want := rec.AllowBytes(k, now), ref.AllowBytes(k, now); got != want {
					t.Fatalf("seed %d op %d: AllowBytes(%q) = %v, fresh rings say %v", seed, op, k, got, want)
				}
			}
			if rec.Denials() != ref.Denials() || rec.TrackedKeys() != ref.TrackedKeys() {
				t.Fatalf("seed %d op %d: denials %d vs %d, tracked keys %d vs %d", seed, op,
					rec.Denials(), ref.Denials(), rec.TrackedKeys(), ref.TrackedKeys())
			}
		}
		if recycled == 0 || ref.Denials() == 0 {
			t.Fatalf("seed %d: stream exercised nothing (free-list sightings %d, denials %d)", seed, recycled, ref.Denials())
		}
	}
}

// TestLimiterSweepReturnsBurstRings pins what a burst leaves behind: a
// sweep keeps a spare ring for each key that arrived since the previous
// sweep, so the sweep right after a burst keeps them all, and the next one,
// with no arrivals in between, hands back all but maxSpareRings.
func TestLimiterSweepReturnsBurstRings(t *testing.T) {
	const burst = 2 * maxSpareRings // fewer than sweepEvery: no automatic sweep in the burst
	l := NewLimiter(LimiterConfig{Window: time.Minute, Limit: 1, shards: 1})
	for i := range burst {
		l.Allow("pf:"+itoa(i), t0)
	}
	spare := func() (n int) {
		forFreeRings(l.shards[0].keys, func(w *Window) {
			if w.counts != nil {
				n++
			}
		})
		return n
	}
	l.Sweep(t0.Add(2 * time.Minute))
	if n := spare(); n != burst {
		t.Fatalf("the sweep after a burst of %d keys kept %d spare rings", burst, n)
	}
	l.Sweep(t0.Add(3 * time.Minute))
	if n := spare(); n != maxSpareRings {
		t.Fatalf("an idle sweep kept %d spare rings, want %d", n, maxSpareRings)
	}
	if !l.Allow("pf:0", t0.Add(3*time.Minute)) || l.TrackedKeys() != 1 {
		t.Fatal("a key after the sweeps was not admitted afresh")
	}
}

// withKeyBudget lowers l's key budget to perShard keys a shard, so the
// budget binds on streams small enough to model.
func withKeyBudget(l *Limiter, perShard int) *Limiter {
	l.perShard = perShard
	for i := range l.shards {
		l.shards[i].keys = keytab.New[Window](perShard)
	}
	return l
}

// forFreeRings calls fn on the ring of every free slot of a shard's table.
func forFreeRings(keys *keytab.Table[Window], fn func(*Window)) {
	for i := range int32(keys.Slots()) {
		if !keys.Used(i) {
			fn(keys.At(i))
		}
	}
}

// referenceBudget is the key budget as a model: one shard's keys in a Go
// map, and at the budget a sweep of the idle keys, then a full sort by
// (in-window count, head, key) with the first deleted down to three
// quarters.
type referenceBudget struct {
	keys          map[string]*Window
	budget, limit int
	window        time.Duration
	buckets, ops  int
}

func (r *referenceBudget) allow(key string, now time.Time) bool {
	if r.ops++; r.ops >= sweepEvery {
		r.ops = 0
		r.sweep(now)
	}
	w, ok := r.keys[key]
	if !ok {
		if len(r.keys) >= r.budget {
			r.sweep(now)
			order := slices.Collect(maps.Keys(r.keys))
			slices.SortFunc(order, func(a, b string) int {
				wa, wb := r.keys[a], r.keys[b]
				return cmp.Or(cmp.Compare(wa.Count(now), wb.Count(now)), cmp.Compare(wa.head, wb.head), strings.Compare(a, b))
			})
			for _, k := range order[:max(len(order)-r.budget*3/4, 0)] {
				delete(r.keys, k)
			}
		}
		w = NewWindow(r.window, r.buckets)
		r.keys[key] = w
	}
	return w.admit(now, r.limit)
}

func (r *referenceBudget) sweep(now time.Time) {
	for k, w := range r.keys {
		if w.Empty(now) {
			delete(r.keys, k)
		}
	}
}

// TestLimiterBudgetMatchesReference holds the key budget to its model on
// seeded streams that keep far more keys in-window than the budget, so
// evictions of live keys decide verdicts, with lulls after which the budget
// binds on a mix of idle and in-window keys: every verdict and the
// tracked-key count must agree after every attempt. The stream's keys
// recur, so a key evicted too early or too late shows up as a wrong
// verdict. Last, a key at its limit must survive a flood of fresh keys:
// evicting it would hand the flooder its allowance back.
func TestLimiterBudgetMatchesReference(t *testing.T) {
	const budget = 48
	cfg := LimiterConfig{Window: 10 * time.Second, Limit: 3, buckets: 8, shards: 1}
	newPair := func() (*Limiter, *referenceBudget) {
		return withKeyBudget(NewLimiter(cfg), budget),
			&referenceBudget{keys: map[string]*Window{}, budget: budget, limit: cfg.Limit, window: cfg.Window, buckets: cfg.buckets}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		rng := simrand.New(seed)
		l, ref := newPair()
		now := t0
		evictions := 0
		for op := range 20000 {
			now = now.Add(time.Duration(rng.Intn(40)) * time.Millisecond)
			if rng.Intn(400) == 0 {
				// A lull: most keys go idle, so the next insert at the
				// budget finds idle and in-window keys side by side.
				now = now.Add(time.Duration(8+rng.Intn(3)) * time.Second)
			}
			k := "pf:" + itoa(rng.Intn(200))
			before := len(ref.keys)
			if got, want := l.Allow(k, now), ref.allow(k, now); got != want {
				t.Fatalf("seed %d op %d: Allow(%q) = %v, reference says %v", seed, op, k, got, want)
			}
			if len(ref.keys) < before {
				evictions++
			}
			if l.TrackedKeys() != len(ref.keys) || len(ref.keys) > budget {
				t.Fatalf("seed %d op %d: tracking %d keys, reference %d, budget %d", seed, op, l.TrackedKeys(), len(ref.keys), budget)
			}
		}
		if evictions == 0 {
			t.Fatalf("seed %d: the budget never bound", seed)
		}
	}

	l, ref := newPair()
	for i := range cfg.Limit + 1 {
		if got, want := l.Allow("pnr:victim", t0), ref.allow("pnr:victim", t0); got != want || got != (i < cfg.Limit) {
			t.Fatalf("attempt %d at the victim key: Allow = %v, reference %v", i, got, want)
		}
	}
	now := t0
	for i := range 20 * budget {
		now = now.Add(time.Millisecond)
		k := "pnr:fresh-" + itoa(i)
		if got, want := l.Allow(k, now), ref.allow(k, now); got != want {
			t.Fatalf("flood key %d: Allow = %v, reference %v", i, got, want)
		}
	}
	if l.Allow("pnr:victim", now) || ref.allow("pnr:victim", now) {
		t.Fatal("a flood of fresh keys gave the key at its limit its allowance back")
	}
}

// TestHash64BytesAgrees pins the string/byte hash agreement AllowBytes
// relies on for shard selection.
func TestHash64BytesAgrees(t *testing.T) {
	for _, s := range []string{"", "a", "pf:user-1", "path:/booking/hold"} {
		if hash64(s) != hash64Bytes([]byte(s)) {
			t.Fatalf("hash64(%q) != hash64Bytes", s)
		}
	}
}
