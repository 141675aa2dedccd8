package signal

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"funabuse/internal/simrand"
)

// TestAllowBytesMatchesAllow drives the same key sequence through the
// string and byte entry points on twin limiters and requires identical
// verdicts, denial totals and tracked-key counts — the contract that lets
// the gate's hot path build keys in scratch space.
func TestAllowBytesMatchesAllow(t *testing.T) {
	a := NewLimiter(LimiterConfig{Window: time.Minute, Limit: 3, Shards: 4})
	b := NewLimiter(LimiterConfig{Window: time.Minute, Limit: 3, Shards: 4})
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
// index order, and requires bit-identical verdicts — the equivalence
// httpgate.DecideBatch builds on.
func TestAllowBatchMatchesSequential(t *testing.T) {
	for _, batch := range []int{1, 7, 64} {
		seq := NewLimiter(LimiterConfig{Window: time.Minute, Limit: 4, Shards: 8})
		bat := NewLimiter(LimiterConfig{Window: time.Minute, Limit: 4, Shards: 8})
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
	cfg := LimiterConfig{Window: 10 * time.Second, Limit: 3, Buckets: 8, Shards: 4}
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

	// Evict-then-reinsert: the sweep hands the key's ring to the shard's
	// free list and the reinsert takes it back, so a key returning after
	// its window emptied costs its string clone and nothing else.
	if raceEnabled {
		return // the detector's map instrumentation perturbs the count
	}
	l = NewLimiter(LimiterConfig{Window: time.Minute, Limit: 1 << 30})
	now := t0
	l.AllowBytes(key, now)
	if avg := testing.AllocsPerRun(256, func() {
		now = now.Add(2 * time.Minute)
		l.Sweep(now)
		l.AllowBytes(key, now)
	}); avg > 1 {
		t.Fatalf("AllowBytes allocates %v/op on an evicted key's return, want <= 1", avg)
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
// limiter that recycles swept rings against a twin whose free lists are
// emptied before every operation — so every insert takes NewWindow, the
// behaviour before recycling existed. Seeded random key/time streams run
// through Allow, AllowBytes and AllowBatch with explicit sweeps (and the
// automatic ones) interleaved; every verdict, the denial totals and the
// tracked-key counts must agree throughout.
func TestLimiterRecycleMatchesFresh(t *testing.T) {
	cfg := LimiterConfig{Window: 10 * time.Second, Limit: 3, Buckets: 8, Shards: 2}
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
				ref.shards[i].free = nil
			}
			for i := range rec.shards {
				recycled += len(rec.shards[i].free)
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

// TestHash64BytesAgrees pins the string/byte hash agreement AllowBytes
// relies on for shard selection.
func TestHash64BytesAgrees(t *testing.T) {
	for _, s := range []string{"", "a", "pf:user-1", "path:/booking/hold"} {
		if hash64(s) != hash64Bytes([]byte(s)) {
			t.Fatalf("hash64(%q) != hash64Bytes", s)
		}
	}
}
