package entitygraph

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"funabuse/internal/race"
	"funabuse/internal/simrand"
)

// referenceGraph is the graph as it stood before stable slots: nodes
// compacted into a fresh slice on every eviction, idx rebuilt, edges keyed
// by their two endpoint strings, victims found by sorting every node. It is
// the executable form of the documented decay, kept as the model the
// slot-keyed graph is held equal to.
type referenceGraph struct {
	cfg   Config
	idx   map[string]int32
	nodes []referenceNode
	edges map[referenceEdge]uint64

	tick       uint64
	components int
	flagRoots  int
	evicted    uint64

	// skipKeyTieBreak is a seeded fault: nodes of one observation are
	// evicted in slice order, not key order. TestGraphMatchesReference
	// must notice.
	skipKeyTieBreak bool
}

type referenceNode struct {
	key    string
	typ    Type
	parent int32
	tick   uint64

	size     int32
	typeMask uint16
	score    float64
	own      float64
	flagged  bool
}

type referenceEdge struct{ a, b string }

func newReferenceGraph(cfg Config) *referenceGraph {
	return &referenceGraph{
		cfg:   cfg.withDefaults(),
		idx:   make(map[string]int32),
		edges: make(map[referenceEdge]uint64),
	}
}

func (g *referenceGraph) Observe(keys []string, weak float64) {
	var ids []int32
	for _, k := range keys {
		if k == "" {
			continue
		}
		id, ok := g.idx[k]
		if !ok {
			id = int32(len(g.nodes))
			typ := keyType(k)
			g.nodes = append(g.nodes, referenceNode{key: k, typ: typ, parent: id, size: 1, typeMask: 1 << typ})
			g.idx[k] = id
			g.components++
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return
	}
	g.tick++
	for _, id := range ids {
		g.nodes[id].tick = g.tick
	}
	anchor := ids[0]
	for _, id := range ids[1:] {
		if id == anchor {
			continue
		}
		ka, kb := g.nodes[anchor].key, g.nodes[id].key
		if kb < ka {
			ka, kb = kb, ka
		}
		g.edges[referenceEdge{ka, kb}] = g.tick
		g.union(anchor, id)
	}
	root := g.find(anchor)
	if weak > 0 {
		g.nodes[anchor].own += weak
		g.nodes[root].score += weak
	}
	g.refreshFlag(root)
	if len(g.nodes) > g.cfg.MaxNodes || len(g.edges) > g.cfg.maxEdges {
		g.evict()
	}
}

func (g *referenceGraph) find(i int32) int32 {
	for g.nodes[i].parent != i {
		i = g.nodes[i].parent
	}
	return i
}

func (g *referenceGraph) union(a, b int32) {
	ra, rb := g.find(a), g.find(b)
	if ra == rb {
		return
	}
	if g.nodes[ra].size < g.nodes[rb].size {
		ra, rb = rb, ra
	}
	na, nb := &g.nodes[ra], &g.nodes[rb]
	nb.parent = ra
	na.size += nb.size
	na.typeMask |= nb.typeMask
	na.score += nb.score
	if na.flagged && nb.flagged {
		g.flagRoots--
	}
	na.flagged = na.flagged || nb.flagged
	g.components--
}

func (g *referenceGraph) refreshFlag(root int32) {
	n := &g.nodes[root]
	if n.flagged {
		return
	}
	if int(n.size) >= g.cfg.MinSize &&
		bits.OnesCount16(n.typeMask) >= g.cfg.MinTypes &&
		n.score >= g.cfg.FlagScore {
		n.flagged = true
		g.flagRoots++
	}
}

func (g *referenceGraph) evict() {
	for i := range g.nodes {
		if g.nodes[g.find(int32(i))].flagged {
			g.nodes[i].flagged = true
		}
	}

	keep := g.nodes
	if target := g.cfg.MaxNodes * 3 / 4; len(g.nodes) > target {
		order := make([]int32, len(g.nodes))
		for i := range order {
			order[i] = int32(i)
		}
		sort.SliceStable(order, func(a, b int) bool {
			na, nb := &g.nodes[order[a]], &g.nodes[order[b]]
			if na.tick != nb.tick || g.skipKeyTieBreak {
				return na.tick < nb.tick
			}
			return na.key < nb.key
		})
		keep = make([]referenceNode, 0, target)
		for _, i := range order[len(order)-target:] {
			keep = append(keep, g.nodes[i])
		}
		g.evicted += uint64(len(g.nodes) - target)
	}

	idx := make(map[string]int32, len(keep))
	for i := range keep {
		n := &keep[i]
		n.parent = int32(i)
		n.size = 1
		n.typeMask = 1 << n.typ
		n.score = n.own
		idx[n.key] = int32(i)
	}
	g.nodes, g.idx = keep, idx
	g.components = len(keep)

	for ek := range g.edges {
		_, oka := idx[ek.a]
		_, okb := idx[ek.b]
		if !oka || !okb {
			delete(g.edges, ek)
		}
	}
	if target := g.cfg.maxEdges * 3 / 4; len(g.edges) > target {
		type aged struct {
			ek   referenceEdge
			tick uint64
		}
		all := make([]aged, 0, len(g.edges))
		for ek, t := range g.edges {
			all = append(all, aged{ek, t})
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].tick != all[b].tick {
				return all[a].tick < all[b].tick
			}
			if all[a].ek.a != all[b].ek.a {
				return all[a].ek.a < all[b].ek.a
			}
			return all[a].ek.b < all[b].ek.b
		})
		for _, e := range all[:len(all)-target] {
			delete(g.edges, e.ek)
		}
	}

	for ek := range g.edges {
		g.union(idx[ek.a], idx[ek.b])
	}
	g.flagRoots = 0
	for i := range g.nodes {
		if g.nodes[i].parent == int32(i) && g.nodes[i].flagged {
			g.flagRoots++
		}
	}
	for i := range g.nodes {
		if g.nodes[i].parent == int32(i) {
			g.refreshFlag(int32(i))
		}
	}
}

func (g *referenceGraph) Lookup(key string) (Component, bool) {
	i, ok := g.idx[key]
	if !ok {
		return Component{}, false
	}
	n := &g.nodes[g.find(i)]
	return Component{
		Size:    int(n.size),
		Types:   bits.OnesCount16(n.typeMask),
		Score:   n.score,
		Flagged: n.flagged,
	}, true
}

func (g *referenceGraph) Stats() Stats {
	return Stats{
		Nodes:             len(g.nodes),
		Edges:             len(g.edges),
		Components:        g.components,
		FlaggedComponents: g.flagRoots,
		Observations:      g.tick,
		Evicted:           g.evicted,
	}
}

// diverges feeds one seeded observation stream to a Graph — alternately
// through Observe and ObserveBytes — and to ref, and describes the first
// point at which they disagree: Stats after every observation, Lookup and
// Flagged of every key ever fed on a periodic sweep. The stream mixes a
// recurring pool (hubs that grow many edges, so the edge budget fires) with
// fresh keys named in descending order (so key order disagrees with slot
// order and with arrival order), under a 48-node budget that evicts every
// few dozen observations and refills the freed slots.
func diverges(seed uint64, ref *referenceGraph) (diff string, final Stats, flagged bool) {
	g := New(ref.cfg)
	rng := simrand.New(seed)
	var pool []string
	for i := range 12 {
		pool = append(pool, FingerprintKey(uint64(i)), IPKey(fmt.Sprintf("203.0.113.%d", i)), "bk:"+fmt.Sprintf("PNR%05d", i))
	}
	seen := append([]string{""}, pool...)
	const ops = 4000
	for op := range ops {
		keys := make([]string, 1+rng.Intn(4))
		for i := range keys {
			switch p := rng.Float64(); {
			case p < 0.05:
				// empty: skipped
			case p < 0.55:
				keys[i] = simrand.Pick(rng, pool)
			default:
				keys[i] = fmt.Sprintf("%s:%05d", []string{"fp", "ip", "ph"}[rng.Intn(3)], 8*(ops-op)+i)
				seen = append(seen, keys[i])
			}
		}
		weak := float64(rng.Intn(3)) / 4 // dyadic: sums are exact in any order
		ref.Observe(keys, weak)
		if op%2 == 0 {
			g.Observe(keys, weak)
		} else {
			views := make([][]byte, len(keys))
			for i, k := range keys {
				views[i] = []byte(k)
			}
			g.ObserveBytes(views, weak)
		}
		got, want := g.Stats(), ref.Stats()
		if got != want {
			return fmt.Sprintf("op %d: Stats %+v, reference %+v", op, got, want), got, flagged
		}
		flagged = flagged || got.FlaggedComponents > 0
		if op%250 == 249 {
			for _, k := range seen {
				gc, gok := g.Lookup(k)
				rc, rok := ref.Lookup(k)
				if gc != rc || gok != rok || g.Flagged(k) != rc.Flagged || g.FlaggedBytes([]byte(k)) != rc.Flagged {
					return fmt.Sprintf("op %d key %q: Lookup %+v/%v flagged %v, reference %+v/%v", op, k, gc, gok, g.Flagged(k), rc, rok), got, flagged
				}
			}
		}
	}
	return "", g.Stats(), flagged
}

// TestGraphMatchesReference is the model test for the slot-keyed graph:
// twenty seeded streams must leave it indistinguishable from the
// compacting reference, through node evictions, edge-budget evictions and
// the reuse of freed slots. The same streams against a reference with one
// seeded fault — the key tie-break skipped — must be told apart, or the
// comparison proves nothing.
func TestGraphMatchesReference(t *testing.T) {
	cfg := Config{MaxNodes: 48, maxEdges: 40, MinSize: 3, MinTypes: 2, FlagScore: 2}
	caught := 0
	for seed := uint64(1); seed <= 20; seed++ {
		ref := newReferenceGraph(cfg)
		diff, st, flagged := diverges(seed, ref)
		if diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		if st.Evicted < 10*uint64(cfg.MaxNodes) || !flagged {
			t.Fatalf("seed %d: stream too tame to prove anything: %+v", seed, st)
		}

		mutant := newReferenceGraph(cfg)
		mutant.skipKeyTieBreak = true
		if diff, _, _ := diverges(seed, mutant); diff != "" {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("a reference that skips the key tie-break passed on every seed: the streams never put a tie on the eviction cut")
	}
	t.Logf("seeded fault caught on %d/20 seeds", caught)
}

// TestEdgeBudgetEvictsOldestByKeyOrder pins the edge-budget branch on its
// own, where every tie-break decides: one observation links a hub to eight
// addresses at one tick, the budget keeps six.
func TestEdgeBudgetEvictsOldestByKeyOrder(t *testing.T) {
	cfg := Config{MaxNodes: 1 << 10, maxEdges: 8}
	g, ref := New(cfg), newReferenceGraph(cfg)
	for _, keys := range [][]string{
		{"fp:hub", "ip:7", "ip:3"},
		{"fp:hub", "ip:9", "ip:1", "ip:5", "ip:8", "ip:2", "ip:4", "ip:6"},
	} {
		g.Observe(keys, 0.5)
		ref.Observe(keys, 0.5)
	}
	if got, want := g.Stats(), ref.Stats(); got != want || got.Edges != 6 {
		t.Fatalf("Stats %+v, reference %+v, want 6 edges", got, want)
	}
	for i := 1; i <= 9; i++ {
		k := fmt.Sprintf("ip:%d", i)
		gc, _ := g.Lookup(k)
		rc, _ := ref.Lookup(k)
		if gc != rc {
			t.Fatalf("%s: component %+v, reference %+v", k, gc, rc)
		}
	}
}

// TestBudgetOfOneEvictsEverything covers the degenerate target: 3/4 of a
// one-node budget is zero, so an eviction keeps nothing and selects nothing.
func TestBudgetOfOneEvictsEverything(t *testing.T) {
	cfg := Config{MaxNodes: 1}
	g, ref := New(cfg), newReferenceGraph(cfg)
	for _, keys := range [][]string{{"fp:a"}, {"fp:a", "ip:1"}, {"fp:b"}, {"fp:b", "ip:2", "bk:3"}} {
		g.Observe(keys, 0.5)
		ref.Observe(keys, 0.5)
		if got, want := g.Stats(), ref.Stats(); got != want {
			t.Fatalf("after %v: Stats %+v, reference %+v", keys, got, want)
		}
	}
	if st := g.Stats(); st.Nodes != 0 || st.Evicted != 5 {
		t.Fatalf("Stats %+v, want an empty graph that evicted 5 nodes", st)
	}
}

// TestObserveEvictSteadyStateAllocs pins the insert-and-evict path at zero
// allocations once the graph has been through its first evictions: nodes
// and their keys land in freed slots, the index and the edge map reuse what
// their deletes emptied, and the selection runs in a reused scratch.
func TestObserveEvictSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	const budget, runs = 256, 1000
	g := New(Config{MaxNodes: budget})
	pairs := make([][][]byte, 4*budget+runs+1)
	for i := range pairs {
		pairs[i] = [][]byte{fmt.Appendf(nil, "fp:%x", i), fmt.Appendf(nil, "ip:%x", i)}
	}
	next := 0
	observe := func() {
		g.ObserveBytes(pairs[next], 0.25)
		next++
	}
	for range 4 * budget {
		observe()
	}
	before := g.Stats()
	if avg := testing.AllocsPerRun(runs, observe); avg != 0 {
		t.Fatalf("ObserveBytes of a fresh pair at budget allocates %v/op, want 0", avg)
	}
	after := g.Stats()
	if evictions := (after.Evicted - before.Evicted) / (budget / 4); evictions < 10 {
		t.Fatalf("measured window held %d evictions, want several", evictions)
	}
	if after.Nodes > budget || g.nodes.Slots() > budget+2 {
		t.Fatalf("graph holds %d nodes in %d slots, budget %d", after.Nodes, g.nodes.Slots(), budget)
	}
}
