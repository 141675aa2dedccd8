package signal

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"funabuse/internal/race"
	"funabuse/internal/simrand"
)

// referenceEngine is the engine's per-key half as it was kept before the
// shards moved onto keytab: one map of rings and one of distinct counters
// per shard, a fresh ring and counter for every new key, and the same
// sweep cadence. The model test holds the keytab engine to it.
type referenceEngine struct {
	window    time.Duration
	precision uint8
	mask      uint64
	shards    []referenceShard
	inserts   int // keys inserted over the run, reused slots included
}

type referenceShard struct {
	windows  map[string]*Window
	distinct map[string]*Distinct
	ops      int
}

func newReferenceEngine(cfg EngineConfig) *referenceEngine {
	n := shardCount(cfg.Shards, DefaultShards)
	ref := &referenceEngine{window: cfg.Window, precision: cfg.DistinctPrecision, mask: uint64(n - 1)}
	for range n {
		ref.shards = append(ref.shards, referenceShard{windows: map[string]*Window{}, distinct: map[string]*Distinct{}})
	}
	return ref
}

func (r *referenceEngine) observe(key, attr string, now time.Time) int {
	s := &r.shards[hash64(key)&r.mask]
	if s.ops++; s.ops >= sweepEvery {
		s.ops = 0
		s.sweep(now)
	}
	w, ok := s.windows[key]
	if !ok {
		w = NewWindow(r.window, DefaultWindowBuckets)
		s.windows[key] = w
		r.inserts++
	}
	w.Add(now, 1)
	if attr != "" && r.precision > 0 {
		d, ok := s.distinct[key]
		if !ok {
			d = NewDistinct(r.precision)
			s.distinct[key] = d
		}
		d.Add(attr)
	}
	return w.Count(now)
}

func (s *referenceShard) sweep(now time.Time) {
	for k, w := range s.windows {
		if w.Empty(now) {
			delete(s.windows, k)
			delete(s.distinct, k)
		}
	}
}

func (r *referenceEngine) sweep(now time.Time) {
	for i := range r.shards {
		r.shards[i].sweep(now)
	}
}

func (r *referenceEngine) rate(key string, now time.Time) int {
	if w, ok := r.shards[hash64(key)&r.mask].windows[key]; ok {
		return w.Count(now)
	}
	return 0
}

func (r *referenceEngine) distinctOf(key string) float64 {
	if d, ok := r.shards[hash64(key)&r.mask].distinct[key]; ok {
		return d.Estimate()
	}
	return 0
}

func (r *referenceEngine) trackedKeys() int {
	n := 0
	for _, s := range r.shards {
		n += len(s.windows)
	}
	return n
}

// engineRun drives an engine, and the reference beside it, with a seeded
// random stream: forward steps, stalls at one instant, steps back by a
// few buckets, jumps past the window that leave every key idle, explicit
// sweeps, and observations with and without an attribute over a key pool
// whose keys come and go, so swept slots are taken again by other keys.
type engineRun struct {
	rng    *simrand.RNG
	e      *Engine
	ref    *referenceEngine
	keys   []string
	at     time.Time
	newest time.Time
}

// engineRunConfig is the engine the runs drive: two stripes and a
// one-minute window, so the cadence sweep and the explicit ones both fire
// within a few thousand observations.
var engineRunConfig = EngineConfig{Shards: 2, Window: time.Minute, DistinctPrecision: 6}

func newEngineRun(seed uint64) *engineRun {
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = "fp:" + itoa(i)
		if i%5 == 0 { // longer than a keytab slot holds in place
			keys[i] = "fp:" + strings.Repeat("long", 8) + itoa(i)
		}
	}
	return &engineRun{
		rng:  simrand.New(seed),
		e:    NewEngine(engineRunConfig),
		ref:  newReferenceEngine(engineRunConfig),
		keys: keys,
		at:   t0,
	}
}

// step moves the clock or sweeps, then observes one key, and reports the
// rates the engine and the reference returned.
func (r *engineRun) step() (got, want int) {
	width := bucketWidth(engineRunConfig.Window, DefaultWindowBuckets)
	switch p := r.rng.Intn(100); {
	case p < 60:
		r.at = r.at.Add(time.Duration(r.rng.Intn(1500)) * time.Millisecond)
	case p < 75: // stall
	case p < 85:
		r.at = r.at.Add(-time.Duration(1+r.rng.Intn(6)) * width)
	case p < 88:
		r.at = r.at.Add(time.Duration(1+r.rng.Intn(2)) * engineRunConfig.Window)
	case p < 93:
		r.e.Sweep(r.at)
		r.ref.sweep(r.at)
	}
	if r.at.After(r.newest) {
		r.newest = r.at
	}
	// A pool window that drifts, so keys fall idle and new ones arrive.
	base := r.rng.Intn(len(r.keys) / 2)
	key := r.keys[(base+int(r.at.Sub(t0)/engineRunConfig.Window)*7)%len(r.keys)]
	attr := ""
	if r.rng.Intn(2) == 0 {
		attr = "ip:" + itoa(r.rng.Intn(90))
	}
	return r.e.ObserveAttr(key, attr, r.at), r.ref.observe(key, attr, r.at)
}

// TestEngineMatchesMapReference holds the keytab engine to the map-backed
// one across sweeps and slot reuse: every observation returns the same
// rate, and at every checkpoint Rate, Distinct and TrackedKeys agree for
// every key of the pool.
func TestEngineMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := newEngineRun(seed)
		for i := range 4000 {
			if got, want := r.step(); got != want {
				t.Fatalf("seed %d step %d: observe returned %d, reference %d", seed, i, got, want)
			}
			if i%97 != 0 {
				continue
			}
			if got, want := r.e.TrackedKeys(), r.ref.trackedKeys(); got != want {
				t.Fatalf("seed %d step %d: %d keys tracked, reference %d", seed, i, got, want)
			}
			for _, key := range append(r.keys, "fp:absent") {
				for _, at := range []time.Time{r.at, r.at.Add(20 * time.Second), r.at.Add(-5 * time.Second)} {
					if got, want := r.e.Rate(key, at), r.ref.rate(key, at); got != want {
						t.Fatalf("seed %d step %d: %s rate %d, reference %d", seed, i, key, got, want)
					}
				}
				if got, want := r.e.Distinct(key), r.ref.distinctOf(key); got != want {
					t.Fatalf("seed %d step %d: %s distinct %.2f, reference %.2f", seed, i, key, got, want)
				}
			}
		}
		if slots := r.e.shards[0].keys.Slots() + r.e.shards[1].keys.Slots(); slots >= r.ref.inserts {
			t.Fatalf("seed %d: %d slots for %d inserts: no slot was reused", seed, slots, r.ref.inserts)
		}
	}
}

// TestAppendWindowsMatchesEngine is the publish path's differential test:
// between publishes of random engines, DecodeRates over AppendWindows'
// frame answers Engine.Rate for every key, an absent one included, at
// every bucket from newest−B−1 to newest+B+1, and DecodeState of the frame
// and of State().Encode() answer the same. Every key's slots come in
// index order, so the view reads each list in place. ratesMismatch holds
// the view to DecodeState of the frame at its own probes too.
func TestAppendWindowsMatchesEngine(t *testing.T) {
	width := bucketWidth(engineRunConfig.Window, DefaultWindowBuckets)
	span := int64(DefaultWindowBuckets) + 1
	for seed := uint64(1); seed <= 8; seed++ {
		r := newEngineRun(seed)
		for i := range 3000 {
			r.step()
			if i%150 != 149 {
				continue
			}
			frame := r.e.AppendWindows(nil)
			if err := ratesMismatch(frame); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			rs, err := DecodeRates(frame)
			if err != nil {
				t.Fatalf("seed %d step %d: DecodeRates: %v", seed, i, err)
			}
			for key, l := range rs.lists {
				if l.ring != nil {
					t.Fatalf("seed %d step %d: %s's slots are out of index order: the view decoded a ring", seed, i, key)
				}
			}
			fromFrame := mustDecode(t, frame)
			fromState := mustDecode(t, r.e.State().Encode())
			if len(rs.lists) != r.e.TrackedKeys() || fromState.Keys() != r.e.TrackedKeys() {
				t.Fatalf("seed %d step %d: frame holds %d keys, state %d, engine %d",
					seed, i, len(rs.lists), fromState.Keys(), r.e.TrackedKeys())
			}
			newest := bucketIndex(r.newest, width)
			for num := newest - span; num <= newest+span; num++ {
				at := time.Unix(0, num*int64(width))
				for _, key := range append(r.keys, "fp:absent") {
					want := r.e.Rate(key, at)
					if got := rs.Rate([]byte(key), at); got != want {
						t.Fatalf("seed %d step %d: %s at bucket %d: view %d, engine %d", seed, i, key, num, got, want)
					}
					if a, b := fromFrame.Rate(key, at), fromState.Rate(key, at); a != want || b != want {
						t.Fatalf("seed %d step %d: %s at bucket %d: frame decodes to %d, State().Encode() to %d, engine %d",
							seed, i, key, num, a, b, want)
					}
				}
			}
		}
	}
}

// TestAppendWindowsQuiescedIsByteStable pins the publish bytes of a
// quiesced engine: two publishes are byte-equal, and appending to a
// buffer that already holds bytes leaves them and writes the same frame.
func TestAppendWindowsQuiescedIsByteStable(t *testing.T) {
	e := fleetProfileEngine(300)
	e.Sweep(t0.Add(90 * time.Second)) // free some slots first
	e.ObserveAttr("fp:late", "10.0.0.1", t0.Add(90*time.Second))
	first := e.AppendWindows(nil)
	if again := e.AppendWindows(nil); !bytes.Equal(first, again) {
		t.Fatalf("two publishes of a quiesced engine differ (%d vs %d bytes)", len(first), len(again))
	}
	prefix := []byte("prefix")
	if got := e.AppendWindows(prefix); !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], first) {
		t.Fatal("appending to a non-empty buffer changed its bytes or the frame")
	}
}

// TestAppendWindowsReusedBufferZeroAlloc pins what a node pays to publish
// into the buffer it keeps across rounds: nothing.
func TestAppendWindowsReusedBufferZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	e := fleetProfileEngine(500)
	buf := e.AppendWindows(nil)
	if avg := testing.AllocsPerRun(20, func() { buf = e.AppendWindows(buf[:0]) }); avg != 0 {
		t.Fatalf("AppendWindows into a reused buffer allocates %.1f times, want 0", avg)
	}
}

// TestAppendWindowsRacesObserve runs observations on several goroutines
// against concurrent publishes; under -race it checks the per-shard
// locking, and every frame must decode.
func TestAppendWindowsRacesObserve(t *testing.T) {
	e := NewEngine(EngineConfig{Shards: 4, Window: time.Minute, DistinctPrecision: 6})
	const workers, perWorker = 4, 3000
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWorker {
				at := t0.Add(time.Duration(i) * 50 * time.Millisecond)
				key := "fp:" + itoa((w*perWorker+i)%211)
				if i%3 == 0 {
					e.ObserveAttr(key, "ip:"+itoa(i%17), at)
				} else {
					e.Observe(key, at)
				}
			}
		}()
	}
	var buf []byte
	for range 50 {
		buf = e.AppendWindows(buf[:0])
		if _, err := DecodeRates(buf); err != nil {
			t.Fatalf("frame published under concurrent observes: %v", err)
		}
	}
	wg.Wait()
	if got := e.Observed(); got != workers*perWorker {
		t.Fatalf("observed %d, want %d", got, workers*perWorker)
	}
}
