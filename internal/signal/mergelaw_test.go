package signal

import (
	"bytes"
	"testing"
	"time"

	"funabuse/internal/simrand"
)

// The fleet view rests on three laws: merging states is commutative and
// associative, and — because a window ring's Count is additive across
// rings of one geometry once no bucket lies in the future — summing Rate
// over separate states answers exactly what their merge would. A gate
// cluster keeps one state per peer and sums at query time on the strength
// of the third; the first two keep State.Merge, which only the benchmark
// still calls, an order-free fold.

// lawKeys is the key pool of the random streams: small enough that the
// states overlap on most keys.
var lawKeys = func() []string {
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = "fp:" + itoa(i)
	}
	return keys
}()

// randomState feeds one engine a monotone random stream spanning several
// windows (rings wrap, early events expire) and snapshots it. It returns
// the snapshot's wire form, so callers can decode as many independent
// copies as a law needs, and the instant of the stream's last event.
func randomState(t *testing.T, rng *simrand.RNG) ([]byte, time.Time) {
	t.Helper()
	e := NewEngine(stateTestConfig())
	at := t0
	for range 200 + rng.Intn(400) {
		at = at.Add(time.Duration(rng.Intn(900)) * time.Millisecond)
		e.ObserveAttr(simrand.Pick(rng, lawKeys), "ip:"+itoa(rng.Intn(40)), at)
	}
	return e.State().Encode(), at
}

func mustDecode(t *testing.T, wire []byte) *State {
	t.Helper()
	st, err := DecodeState(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return st
}

// mergeAll decodes the wires in the given order and folds them left to
// right into the first.
func mergeAll(t *testing.T, wires ...[]byte) *State {
	t.Helper()
	acc := mustDecode(t, wires[0])
	for _, w := range wires[1:] {
		if !acc.Merge(mustDecode(t, w)) {
			t.Fatal("merge of identical dimensions failed")
		}
	}
	return acc
}

func TestStateMergeLaws(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := simrand.New(seed)
		var wires [3][]byte
		var latest time.Time
		for i := range wires {
			var last time.Time
			wires[i], last = randomState(t, rng)
			if last.After(latest) {
				latest = last
			}
		}
		a, b, c := wires[0], wires[1], wires[2]
		// (a+b)+c against a+(b+c) for associativity and against (c+b)+a
		// for commutativity.
		left := mergeAll(t, a, b, c)
		right := mustDecode(t, a)
		right.Merge(mergeAll(t, b, c))
		swapped := mergeAll(t, c, b, a)
		parts := []*State{mustDecode(t, a), mustDecode(t, b), mustDecode(t, c)}

		if left.Observed() != right.Observed() || left.Observed() != swapped.Observed() {
			t.Fatalf("seed %d: observed %d / %d / %d across merge orders",
				seed, left.Observed(), right.Observed(), swapped.Observed())
		}
		for _, key := range lawKeys {
			if l, r, s := left.Freq(key), right.Freq(key), swapped.Freq(key); l != r || l != s {
				t.Fatalf("seed %d %s: freq %d / %d / %d across merge orders", seed, key, l, r, s)
			}
			for _, ahead := range []time.Duration{0, 7 * time.Second, 31 * time.Second, time.Minute, 2 * time.Minute} {
				now := latest.Add(ahead)
				l, r, s := left.Rate(key, now), right.Rate(key, now), swapped.Rate(key, now)
				if l != r || l != s {
					t.Fatalf("seed %d %s +%v: rate %d / %d / %d across merge orders", seed, key, ahead, l, r, s)
				}
				sum := 0
				for _, p := range parts {
					sum += p.Rate(key, now)
				}
				if sum != l {
					t.Fatalf("seed %d %s +%v: rates sum to %d, merged state answers %d", seed, key, ahead, sum, l)
				}
			}
		}
	}
}

// TestSlabStatesRoundTrip crosses every slab chunk boundary: 1,500 keys
// need three window chunks, three distinct chunks and several key chunks.
func TestSlabStatesRoundTrip(t *testing.T) {
	wire := fleetProfileEngine(1500).State().Encode()
	if got := mustDecode(t, wire).Encode(); !bytes.Equal(got, wire) {
		t.Fatalf("re-encoded slab-decoded state differs (%d vs %d bytes)", len(got), len(wire))
	}
}

// TestSlabKeysAreIsolated merges a heavy state for one key into states
// whose per-key structures share slabs — a snapshot and a decode — and
// checks that no other key's ring or registers moved.
func TestSlabKeysAreIsolated(t *testing.T) {
	e := NewEngine(stateTestConfig())
	feedEngine(e, -1)
	const victim = "fp:3"
	heavy := NewEngine(stateTestConfig())
	for i := range 5000 {
		heavy.ObserveAttr(victim, "ip:heavy"+itoa(i), t0.Add(time.Duration(i)*8*time.Millisecond))
	}
	now := t0.Add(40 * time.Second)
	for name, st := range map[string]*State{
		"snapshot": e.State(),
		"decoded":  mustDecode(t, e.State().Encode()),
	} {
		pristine := e.State()
		if !st.Merge(heavy.State()) {
			t.Fatalf("%s: merge failed", name)
		}
		for i := range 7 {
			key := "fp:" + itoa(i)
			moved := st.Rate(key, now) != pristine.Rate(key, now) || st.Distinct(key) != pristine.Distinct(key)
			if moved != (key == victim) {
				t.Fatalf("%s %s: rate %d→%d distinct %.1f→%.1f after merging into %s only", name, key,
					pristine.Rate(key, now), st.Rate(key, now), pristine.Distinct(key), st.Distinct(key), victim)
			}
		}
	}
}

// TestStateCodecAllocBounds pins the slab allocation discipline on the
// 500-key state a fleet node ships: a few dozen allocations, where one per
// ring, slice, counter and key string would be thousands.
func TestStateCodecAllocBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	e := fleetProfileEngine(500)
	wire := e.State().Encode()
	if avg := testing.AllocsPerRun(10, func() { e.State() }); avg > 64 {
		t.Errorf("Engine.State allocates %.0f times, want <= 64", avg)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := DecodeState(wire); err != nil {
			t.Fatal(err)
		}
	}); avg > 64 {
		t.Errorf("DecodeState allocates %.0f times, want <= 64", avg)
	}
}
