package entitygraph

import (
	"fmt"
	"sync"
	"testing"

	"funabuse/internal/simrand"
)

func TestKeyHelpers(t *testing.T) {
	cases := []struct {
		key  string
		want Type
	}{
		{FingerprintKey(0xdeadbeef), TypeFingerprint},
		{IPKey("203.0.113.9"), TypeIP},
		{"nm:garcia", TypeName},
		{"bk:PNR00042", TypeBooking},
		{"ph:882161", TypePhone},
		{"weird", TypeOther},
		{"", TypeOther},
	}
	for _, c := range cases {
		if got := keyType(c.key); got != c.want {
			t.Errorf("keyType(%q) = %v, want %v", c.key, got, c.want)
		}
	}
}

func TestObserveBuildsComponents(t *testing.T) {
	g := New(Config{})
	g.Observe([]string{"fp:a", "ip:1"}, 0)
	g.Observe([]string{"fp:b", "ip:2"}, 0)
	st := g.Stats()
	if st.Nodes != 4 || st.Components != 2 {
		t.Fatalf("want 4 nodes in 2 components, got %+v", st)
	}
	// Shared IP collapses the two components.
	g.Observe([]string{"fp:a", "ip:2"}, 0)
	if st = g.Stats(); st.Components != 1 {
		t.Fatalf("shared entity should merge components, got %+v", st)
	}
	c, ok := g.Lookup("fp:b")
	if !ok || c.Size != 4 || c.Types != 2 {
		t.Fatalf("merged component = %+v ok=%v, want size 4 types 2", c, ok)
	}
}

func TestFlaggingRequiresSizeTypesAndScore(t *testing.T) {
	g := New(Config{MinSize: 3, MinTypes: 2, FlagScore: 1.0})

	// An honest client: fp+ip pair, plenty of (hypothetical) score but
	// size 2 < MinSize — never flagged.
	for range 100 {
		g.Observe([]string{"fp:honest", "ip:home"}, 0.5)
	}
	if g.Flagged("fp:honest") {
		t.Fatal("size-2 component must not flag regardless of score")
	}

	// Structure without evidence: big and diverse, zero score.
	g.Observe([]string{"fp:s1", "ip:x1", "ip:x2", "bk:r1"}, 0)
	if g.Flagged("fp:s1") {
		t.Fatal("zero-score component must not flag")
	}
	// Weak evidence accumulates across observations of the same shared
	// infrastructure until the component crosses the threshold.
	g.Observe([]string{"fp:s1", "ip:x1"}, 0.5)
	if g.Flagged("fp:s1") {
		t.Fatal("score 0.5 < FlagScore 1.0 should not flag yet")
	}
	g.Observe([]string{"fp:s2", "ip:x2"}, 0.6)
	if !g.Flagged("fp:s1") || !g.Flagged("fp:s2") || !g.Flagged("bk:r1") {
		t.Fatal("accumulated weak score across the component should flag every member")
	}
	if !g.FlaggedBytes([]byte("ip:x1")) {
		t.Fatal("FlaggedBytes disagrees with Flagged")
	}
	if g.FlaggedBytes([]byte("ip:unknown")) {
		t.Fatal("unknown key must not be flagged")
	}
	if st := g.Stats(); st.FlaggedComponents != 1 {
		t.Fatalf("want 1 flagged component, got %+v", st)
	}
}

func TestFlagStickyAcrossMerge(t *testing.T) {
	g := New(Config{MinSize: 3, MinTypes: 2, FlagScore: 1.0})
	g.Observe([]string{"fp:a", "ip:1", "bk:1"}, 2.0) // flags immediately
	if !g.Flagged("fp:a") {
		t.Fatal("setup: component should be flagged")
	}
	g.Observe([]string{"fp:clean", "ip:clean"}, 0)
	g.Observe([]string{"fp:clean", "ip:1"}, 0) // merge into flagged component
	if !g.Flagged("fp:clean") {
		t.Fatal("merging into a flagged component should flag the newcomer")
	}
	if st := g.Stats(); st.FlaggedComponents != 1 {
		t.Fatalf("want 1 flagged component after merge, got %+v", st)
	}
}

func TestEvictionBoundsNodesDeterministically(t *testing.T) {
	build := func() *Graph {
		g := New(Config{MaxNodes: 64, maxEdges: 1024})
		for i := range 200 {
			g.Observe([]string{
				fmt.Sprintf("fp:%03d", i),
				fmt.Sprintf("ip:%03d", i),
			}, 0.1)
		}
		return g
	}
	g1, g2 := build(), build()
	st1, st2 := g1.Stats(), g2.Stats()
	if st1.Nodes > 64 {
		t.Fatalf("node budget exceeded: %+v", st1)
	}
	if st1.Evicted == 0 {
		t.Fatal("expected evictions")
	}
	if st1 != st2 {
		t.Fatalf("eviction nondeterministic: %+v vs %+v", st1, st2)
	}
	// Most recently observed entities survive; the oldest are gone.
	if _, ok := g1.Lookup("fp:199"); !ok {
		t.Fatal("most recent node evicted")
	}
	if _, ok := g1.Lookup("fp:000"); ok {
		t.Fatal("oldest node survived a full-budget eviction")
	}
	// The two graphs agree on exactly which keys survived.
	for i := range 200 {
		k := fmt.Sprintf("fp:%03d", i)
		_, ok1 := g1.Lookup(k)
		_, ok2 := g2.Lookup(k)
		if ok1 != ok2 {
			t.Fatalf("graphs disagree on survivor %s: %v vs %v", k, ok1, ok2)
		}
	}
}

func TestEvictionPreservesFlagsAndScore(t *testing.T) {
	g := New(Config{MaxNodes: 16, maxEdges: 1024, MinSize: 3, MinTypes: 2, FlagScore: 1.0})
	// Flag a syndicate component, then churn enough one-shot entities to
	// force evictions. The syndicate keys are re-observed throughout, so
	// they stay recent and must stay flagged.
	for i := range 100 {
		g.Observe([]string{"fp:syn", "ip:syn", "bk:syn"}, 0.5)
		g.Observe([]string{
			fmt.Sprintf("fp:churn%04d", i),
			fmt.Sprintf("ip:churn%04d", i),
		}, 0)
	}
	if st := g.Stats(); st.Nodes > 16 || st.Evicted == 0 {
		t.Fatalf("eviction did not bound nodes: %+v", st)
	}
	if !g.Flagged("fp:syn") || !g.Flagged("bk:syn") {
		t.Fatal("sticky flag lost across eviction rebuilds")
	}
	c, ok := g.Lookup("fp:syn")
	if !ok || !c.Flagged || c.Size != 3 {
		t.Fatalf("syndicate component corrupted by eviction: %+v ok=%v", c, ok)
	}
}

func TestEvictionRecountsFlaggedComponents(t *testing.T) {
	g := New(Config{MaxNodes: 16, maxEdges: 1024, MinSize: 3, MinTypes: 2, FlagScore: 1.0})
	// Flag one component, then stop touching it so decay evicts it whole.
	for range 3 {
		g.Observe([]string{"fp:old", "ip:old", "bk:old"}, 0.5)
	}
	if st := g.Stats(); st.FlaggedComponents != 1 {
		t.Fatalf("setup: %+v", st)
	}
	// A second flagged component stays hot through a churn of one-shot
	// pairs that forces repeated budget evictions.
	for i := range 100 {
		g.Observe([]string{"fp:new", "ip:new", "bk:new"}, 0.5)
		g.Observe([]string{
			fmt.Sprintf("fp:churn%04d", i),
			fmt.Sprintf("ip:churn%04d", i),
		}, 0)
	}
	if _, ok := g.Lookup("fp:old"); ok {
		t.Fatal("cold flagged component survived 100 churn evictions")
	}
	if !g.Flagged("fp:new") {
		t.Fatal("hot flagged component lost its flag")
	}
	// The flagged-component count must be recounted from the rebuilt
	// forest, not carried over: the evicted component no longer counts.
	if st := g.Stats(); st.FlaggedComponents != 1 {
		t.Fatalf("flag count stale after eviction: %+v", st)
	}
}

func TestEdgeBudget(t *testing.T) {
	g := New(Config{MaxNodes: 1 << 10, maxEdges: 32})
	for i := range 100 {
		g.Observe([]string{"fp:hub", fmt.Sprintf("ip:%03d", i)}, 0)
	}
	if st := g.Stats(); st.Edges > 32 {
		t.Fatalf("edge budget exceeded: %+v", st)
	}
}

func TestObserveSkipsEmptyKeys(t *testing.T) {
	g := New(Config{})
	g.Observe([]string{"", "fp:a", "", "ip:1"}, 0.1)
	g.Observe(nil, 1.0)
	g.Observe([]string{""}, 1.0)
	st := g.Stats()
	if st.Nodes != 2 || st.Observations != 1 {
		t.Fatalf("empty keys mishandled: %+v", st)
	}
	if c, _ := g.Lookup("fp:a"); c.Size != 2 {
		t.Fatalf("empty keys broke linking: %+v", c)
	}
}

func TestSelfLinkObservation(t *testing.T) {
	g := New(Config{})
	g.Observe([]string{"fp:a", "fp:a"}, 0.1)
	st := g.Stats()
	if st.Nodes != 1 || st.Edges != 0 || st.Components != 1 {
		t.Fatalf("self-co-occurrence should be a lone node, got %+v", st)
	}
}

// TestObserveBytesMatchesObserve is the model test for the byte-key feed
// path: twin graphs under a node budget small enough to force evictions,
// one fed through Observe and one through ObserveBytes out of a single
// reused scratch buffer, must agree on Stats and on Lookup and Flagged for
// every key ever fed — and a warm ObserveBytes must not allocate.
func TestObserveBytesMatchesObserve(t *testing.T) {
	cfg := Config{MaxNodes: 48, MinSize: 3, MinTypes: 2, FlagScore: 2}
	str, byt := New(cfg), New(cfg)
	rng := simrand.New(7)
	var pool []string
	for i := range 40 {
		pool = append(pool, FingerprintKey(uint64(i)), IPKey(fmt.Sprintf("203.0.113.%d", i)), "bk:"+fmt.Sprintf("PNR%05d", i))
	}
	pool = append(pool, "") // empty keys are skipped on both paths
	var buf []byte
	for op := range 3000 {
		keys := make([]string, 1+rng.Intn(4))
		for i := range keys {
			keys[i] = simrand.Pick(rng, pool)
		}
		weak := float64(rng.Intn(3)) / 4
		str.Observe(keys, weak)

		// One shared buffer, overwritten every observation: a graph that
		// kept a view instead of cloning would see its keys change.
		buf = buf[:0]
		views := make([][]byte, len(keys))
		for _, k := range keys {
			buf = append(buf, k...)
		}
		off := 0
		for i, k := range keys {
			views[i] = buf[off : off+len(k)]
			off += len(k)
		}
		byt.ObserveBytes(views, weak)

		if s, b := str.Stats(), byt.Stats(); s != b {
			t.Fatalf("op %d: Stats diverge: Observe %+v, ObserveBytes %+v", op, s, b)
		}
	}
	if str.Stats().Evicted == 0 || str.Stats().FlaggedComponents == 0 {
		t.Fatalf("stream forced no eviction or no flag: %+v", str.Stats())
	}
	for _, k := range pool {
		sc, sok := str.Lookup(k)
		bc, bok := byt.Lookup(k)
		if sc != bc || sok != bok || str.Flagged(k) != byt.Flagged(k) {
			t.Fatalf("key %q: Observe %+v/%v flagged %v, ObserveBytes %+v/%v flagged %v",
				k, sc, sok, str.Flagged(k), bc, bok, byt.Flagged(k))
		}
	}

	g := New(Config{})
	warm := [][]byte{[]byte("fp:a"), []byte("ip:1"), []byte("bk:X")}
	g.ObserveBytes(warm, 0.1)
	if avg := testing.AllocsPerRun(256, func() { g.ObserveBytes(warm, 0.1) }); avg != 0 {
		t.Fatalf("ObserveBytes allocates %v/op over known keys, want 0", avg)
	}
}

func TestConcurrentLookupsDuringObserve(t *testing.T) {
	g := New(Config{MaxNodes: 128})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := []byte("fp:017")
			for {
				select {
				case <-stop:
					return
				default:
					g.FlaggedBytes(key)
					g.Stats()
				}
			}
		}()
	}
	for i := range 2000 {
		g.Observe([]string{
			fmt.Sprintf("fp:%03d", i%40),
			fmt.Sprintf("ip:%03d", i%23),
		}, 0.05)
	}
	close(stop)
	wg.Wait()
}

func BenchmarkFlaggedBytes(b *testing.B) {
	g := New(Config{})
	for i := range 1000 {
		g.Observe([]string{
			fmt.Sprintf("fp:%04d", i),
			fmt.Sprintf("ip:%04d", i%97),
		}, 0.1)
	}
	key := []byte("fp:0500")
	b.ReportAllocs()
	for b.Loop() {
		g.FlaggedBytes(key)
	}
}
