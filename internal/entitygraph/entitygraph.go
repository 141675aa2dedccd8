// Package entitygraph maintains an incremental entity-linkage graph: the
// structural-risk-amplification defence of the Grab "Combating Organized
// Platform Abuse" line of work, applied to the paper's functional-abuse
// setting. Nodes are typed entity keys — fingerprint hashes, source IPs,
// normalized passenger-name tokens, booking references, phone prefixes —
// and an edge records that two entities co-occurred within one session or
// booking. Connected components are tracked online with a union-find
// (path compression on the write path, union by size), and each
// component carries a summary: size, the set of distinct entity types it
// spans, and a weak-signal score accumulated from low-confidence
// detector verdicts.
//
// The point is amplification. A low-and-slow syndicate keeps every
// individual session under every volume threshold, so each session
// contributes only a weak signal — but the sessions share rotating
// subsets of infrastructure, so their entities collapse into one
// component whose accumulated score is flagrant. A component is flagged
// once it is big enough (MinSize), structurally diverse enough
// (MinTypes), and has accumulated enough weak evidence (FlagScore);
// flags are sticky. Honest clients keep private infrastructure, so their
// components stay small and below every gate.
//
// Memory is bounded: the graph holds at most MaxNodes nodes and MaxEdges
// co-occurrence edges. When a budget is exceeded the graph decays
// deterministically — the nodes least recently observed (ties broken by
// key) are evicted down to 3/4 of the budget and the union-find is
// rebuilt from the surviving edges, preserving per-node accrued score
// and sticky flags. Two graphs fed the same observation sequence evict
// identically, which is what the loadgen determinism goldens rely on.
//
// What is exact: the victim set (an nth-element selection over (tick, slot)
// pairs in a reused scratch, keys read only to order the nodes of one
// observation), every component's size, type span, score and flag after
// the rebuild, and all of Stats. What is amortised: the rebuild itself —
// one pass over the node slab and the edge map per quarter budget of new
// nodes. Nodes live in stable slots: a survivor keeps its slot through any
// number of evictions and a victim's slot goes on a free list for the next
// new key, so an eviction removes only the victims' keys from the index,
// compacts and reallocates nothing, and a saturated graph's inserts
// allocate the key clone the graph must retain and nothing else. Because
// slots are stable, an edge is keyed by its two slots packed in a uint64
// rather than by its two key strings: recording a co-occurrence hashes 8
// bytes, and the rebuild re-unions by slot without hashing a string. A slot
// is never reused while an edge still names it — the eviction that frees a
// slot drops every edge with a dead endpoint in the same step. Only the
// edge-budget branch (a hub with more edges than MaxEdges) still sorts, by
// (tick, lower key, higher key), and allocates while it does.
//
// The graph is safe for concurrent use: observations take the write
// lock; lookups — including the gate hot path's FlaggedBytes — take the
// read lock and never mutate (the read path walks parent pointers
// without compressing).
package entitygraph

import (
	"cmp"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Type classifies an entity key.
type Type uint8

// Entity types, one per key prefix.
const (
	TypeFingerprint Type = iota
	TypeIP
	TypeName
	TypeBooking
	TypePhone
	TypeOther
	numTypes
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeFingerprint:
		return "fingerprint"
	case TypeIP:
		return "ip"
	case TypeName:
		return "name"
	case TypeBooking:
		return "booking"
	case TypePhone:
		return "phone"
	default:
		return "other"
	}
}

// Key constructors. Prefixes match the byte keys httpgate assembles on
// the hot path ("fp:", "ip:"), so a gate probe and a detector
// observation of the same entity land on the same node.

// FingerprintKey returns the node key for a fingerprint hash.
func FingerprintKey(hash uint64) string { return "fp:" + strconv.FormatUint(hash, 16) }

// IPKey returns the node key for a source address.
func IPKey(ip string) string { return "ip:" + ip }

// KeyType classifies a node key by its prefix.
func KeyType(key string) Type {
	if len(key) < 3 || key[2] != ':' {
		return TypeOther
	}
	switch key[:2] {
	case "fp":
		return TypeFingerprint
	case "ip":
		return TypeIP
	case "nm":
		return TypeName
	case "bk":
		return TypeBooking
	case "ph":
		return TypePhone
	default:
		return TypeOther
	}
}

// Config tunes a Graph. Zero fields select defaults.
type Config struct {
	// MaxNodes and MaxEdges are the hard memory budgets; exceeding either
	// triggers a deterministic decay eviction down to 3/4 of the budget.
	// Defaults: 65536 nodes, 4x that many edges.
	MaxNodes int
	MaxEdges int
	// MinSize is the smallest component (node count) that can be flagged.
	// Default 3: a lone fingerprint+IP pair — every honest client — can
	// never be flagged on score alone.
	MinSize int
	// MinTypes is the minimum number of distinct entity types a flaggable
	// component must span. Default 2.
	MinTypes int
	// FlagScore is the accumulated weak-signal score at which a component
	// that meets the structural gates is flagged. Default 3.
	FlagScore float64
}

func (c Config) withDefaults() Config {
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 16
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 4 * c.MaxNodes
	}
	if c.MinSize <= 0 {
		c.MinSize = 3
	}
	if c.MinTypes <= 0 {
		c.MinTypes = 2
	}
	if c.FlagScore <= 0 {
		c.FlagScore = 3
	}
	return c
}

// node is one entity in a stable slot of the graph's slab; a slot whose key
// is empty is free. parent/size implement the union-find; size, typeMask,
// score and flagged are authoritative only at a root (except during
// eviction, when flags are propagated to members so they survive the
// rebuild). own is the node's personally accrued weak score — the
// quantity that survives eviction and from which root scores are rebuilt.
type node struct {
	key   string
	tick  uint64
	score float64
	own   float64

	parent   int32
	size     int32
	typeMask uint16
	typ      Type
	flagged  bool
}

// edgeID identifies a co-occurrence edge by its endpoint slots, the lower
// slot in the high half, so (a,b) and (b,a) are one edge. Slots, not keys:
// a slot is stable for as long as its node lives, and an eviction drops
// every edge of a node in the same step that frees its slot, so a reused
// slot never inherits an edge.
type edgeID uint64

func edgeBetween(a, b int32) edgeID {
	if b < a {
		a, b = b, a
	}
	return edgeID(uint32(a))<<32 | edgeID(uint32(b))
}

func (e edgeID) ends() (a, b int32) { return int32(e >> 32), int32(uint32(e)) }

// Graph is the incremental entity-linkage graph.
type Graph struct {
	cfg Config

	mu    sync.RWMutex
	idx   map[string]int32  // key → slot in nodes, live nodes only
	nodes []node            // the slab: live nodes and free slots
	free  []int32           // slots an eviction emptied, reused before the slab grows
	edges map[edgeID]uint64 // last tick the co-occurrence was observed

	tick       uint64
	components int
	flagRoots  int
	evicted    uint64

	scratch []int32
	cands   []evictCand // eviction scratch, reused
}

// New returns an empty graph under cfg's budgets.
func New(cfg Config) *Graph {
	cfg = cfg.withDefaults()
	return &Graph{
		cfg:   cfg,
		idx:   make(map[string]int32),
		edges: make(map[edgeID]uint64),
	}
}

// Config returns the graph's resolved configuration.
func (g *Graph) Config() Config { return g.cfg }

// Observe records one co-occurrence: every key becomes (or refreshes) a
// node, all keys are linked into one component, and weak — a
// low-confidence risk score in [0,1] from whatever detector produced
// this observation — is accrued onto the component. Empty keys are
// ignored. Observations are the graph's logical clock: eviction order is
// least-recently-observed first.
func (g *Graph) Observe(keys []string, weak float64) {
	g.mu.Lock()
	defer g.mu.Unlock()

	ids := g.scratch[:0]
	for _, k := range keys {
		if k == "" {
			continue
		}
		id, ok := g.idx[k]
		if !ok {
			id = g.add(k)
		}
		ids = append(ids, id)
	}
	g.observe(ids, weak)
}

// ObserveBytes is Observe for keys assembled in reusable byte buffers —
// the per-request feed path. Known keys are resolved without materialising
// a string; a key is cloned only when it is first inserted, the point the
// graph must retain it, so an observation over a recurring key set
// allocates nothing. The graph keeps no reference to keys.
func (g *Graph) ObserveBytes(keys [][]byte, weak float64) {
	g.mu.Lock()
	defer g.mu.Unlock()

	ids := g.scratch[:0]
	for _, k := range keys {
		if len(k) == 0 {
			continue
		}
		id, ok := g.idx[string(k)]
		if !ok {
			id = g.add(string(k))
		}
		ids = append(ids, id)
	}
	g.observe(ids, weak)
}

// observe is the shared body of Observe and ObserveBytes once the keys are
// resolved to node ids. Callers hold the write lock.
func (g *Graph) observe(ids []int32, weak float64) {
	g.scratch = ids
	if len(ids) == 0 {
		return
	}
	g.tick++
	for _, id := range ids {
		g.nodes[id].tick = g.tick
	}
	anchor := ids[0]
	for _, id := range ids[1:] {
		g.link(anchor, id)
	}
	root := g.find(anchor)
	if weak > 0 {
		g.nodes[anchor].own += weak
		g.nodes[root].score += weak
	}
	g.refreshFlag(root)

	if len(g.idx) > g.cfg.MaxNodes || len(g.edges) > g.cfg.MaxEdges {
		g.evict()
	}
}

// add inserts an unseen key as a fresh singleton component, in a freed slot
// when there is one, and returns its slot. Callers hold the write lock.
func (g *Graph) add(key string) int32 {
	var i int32
	if n := len(g.free); n > 0 {
		i = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		i = int32(len(g.nodes))
		g.nodes = append(g.nodes, node{})
	}
	typ := KeyType(key)
	g.nodes[i] = node{
		key: key, typ: typ, parent: i,
		size: 1, typeMask: 1 << typ,
	}
	g.idx[key] = i
	g.components++
	return i
}

// link records the co-occurrence edge between two nodes and unions their
// components. Callers hold the write lock.
func (g *Graph) link(a, b int32) {
	if a == b {
		return
	}
	g.edges[edgeBetween(a, b)] = g.tick
	g.union(a, b)
}

// find resolves i's root with path compression. Write path only.
func (g *Graph) find(i int32) int32 {
	root := i
	for g.nodes[root].parent != root {
		root = g.nodes[root].parent
	}
	for g.nodes[i].parent != root {
		g.nodes[i].parent, i = root, g.nodes[i].parent
	}
	return root
}

// findRead resolves i's root without mutating, for lock-shared readers.
func (g *Graph) findRead(i int32) int32 {
	for g.nodes[i].parent != i {
		i = g.nodes[i].parent
	}
	return i
}

// union merges the components of a and b by size, folding the smaller
// root's aggregates into the larger. Callers hold the write lock.
func (g *Graph) union(a, b int32) {
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

// refreshFlag flags root's component once it crosses every gate; flags
// are sticky. Callers hold the write lock.
func (g *Graph) refreshFlag(root int32) {
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

// evictCand is one node as the eviction selection sees it: the tick it was
// last observed at and its slot. The key is read through the slot, and only
// to order two nodes of one observation.
type evictCand struct {
	tick uint64
	slot int32
}

// evict is the deterministic decay step: drop the least recently
// observed nodes (ties by key) down to 3/4 of the node budget, drop
// edges that lost an endpoint (then the oldest edges if still over
// budget), and rebuild the union-find from the survivors. Per-node
// accrued score and sticky flags survive; a flagged component that the
// eviction splits leaves every surviving fragment flagged.
//
// Survivors keep their slots: only the victims' keys leave idx, nothing is
// compacted or reallocated, and the rebuild resets and re-unions by slot.
func (g *Graph) evict() {
	// Sticky flags must survive the rebuild at node granularity.
	for i := range g.nodes {
		if g.nodes[g.findRead(int32(i))].flagged {
			g.nodes[i].flagged = true
		}
	}

	if target := g.cfg.MaxNodes * 3 / 4; len(g.idx) > target {
		c := slices.Grow(g.cands[:0], len(g.idx))
		for i := range g.nodes {
			if n := &g.nodes[i]; n.key != "" {
				c = append(c, evictCand{tick: n.tick, slot: int32(i)})
			}
		}
		g.cands = c
		k := len(c) - target
		if k < len(c) {
			g.selectOldest(c, k)
		}
		for _, v := range c[:k] {
			delete(g.idx, g.nodes[v.slot].key)
			// A free slot is its own unflagged root, so the walks over
			// the whole slab above and below pass through it untouched.
			g.nodes[v.slot] = node{parent: v.slot}
			g.free = append(g.free, v.slot)
		}
		g.evicted += uint64(k)
	}

	for i := range g.nodes {
		n := &g.nodes[i]
		n.parent = int32(i)
		n.size = 1
		n.typeMask = 1 << n.typ
		n.score = n.own
	}
	g.components = len(g.idx)

	// Surviving edges: both endpoints kept. Determinism note: map
	// iteration order is random, but edge filtering is order-independent
	// and the rebuild unions below are commutative in their aggregates,
	// so the resulting components, scores and flags are identical across
	// runs; only when the edge budget itself overflows is an explicit
	// sort imposed.
	for e := range g.edges {
		if a, b := e.ends(); g.nodes[a].key == "" || g.nodes[b].key == "" {
			delete(g.edges, e)
		}
	}
	if target := g.cfg.MaxEdges * 3 / 4; len(g.edges) > target {
		g.evictEdges(len(g.edges) - target)
	}

	g.flagRoots = 0
	for e := range g.edges {
		g.union(e.ends())
	}
	// union counts a flagged-flagged merge as losing one flagged root
	// starting from flagRoots = 0, so recount from the rebuilt forest.
	g.flagRoots = 0
	for i := range g.nodes {
		if n := &g.nodes[i]; n.key != "" && n.parent == int32(i) && n.flagged {
			g.flagRoots++
		}
	}
	for i := range g.nodes {
		if n := &g.nodes[i]; n.key != "" && n.parent == int32(i) {
			g.refreshFlag(int32(i))
		}
	}
}

// older is the node eviction order: last-observed tick, then key.
func (g *Graph) older(a, b evictCand) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	return g.nodes[a.slot].key < g.nodes[b.slot].key
}

// selectOldest reorders c so that c[:k] holds its k oldest entries, in no
// particular order (0 < k < len(c)). Keys are distinct, so older is a
// strict total order and the selected set is unique whatever the pivots.
// It is a quickselect on a median-of-three pivot; a run of bad pivots
// falls back to sorting what is left, which keeps the worst case at
// n log n for any observation pattern.
func (g *Graph) selectOldest(c []evictCand, k int) {
	lo, hi := 0, len(c)
	for budget := 2 * bits.Len(uint(len(c))); hi-lo > 12 && budget > 0; budget-- {
		a, b, p := c[lo], c[hi-1], c[lo+(hi-lo)/2]
		if g.older(b, a) {
			a, b = b, a
		}
		if g.older(p, a) {
			p = a
		} else if g.older(b, p) {
			p = b
		}
		i, j := lo, hi-1
		for i <= j {
			for g.older(c[i], p) {
				i++
			}
			for g.older(p, c[j]) {
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
	slices.SortFunc(c[lo:hi], func(a, b evictCand) int {
		if g.older(a, b) {
			return -1
		}
		return 1
	})
}

// evictEdges drops the n least recently observed edges, ties broken by the
// endpoint keys in order. Only a hub pattern — few nodes, many edges —
// gets here, so it sorts, and allocates its own scratch.
func (g *Graph) evictEdges(n int) {
	type aged struct {
		e    edgeID
		tick uint64
		a, b string // endpoint keys, a < b
	}
	all := make([]aged, 0, len(g.edges))
	for e, t := range g.edges {
		a, b := e.ends()
		ka, kb := g.nodes[a].key, g.nodes[b].key
		if kb < ka {
			ka, kb = kb, ka
		}
		all = append(all, aged{e, t, ka, kb})
	}
	slices.SortFunc(all, func(x, y aged) int {
		return cmp.Or(cmp.Compare(x.tick, y.tick), strings.Compare(x.a, y.a), strings.Compare(x.b, y.b))
	})
	for _, e := range all[:n] {
		delete(g.edges, e.e)
	}
}

// FlaggedBytes reports whether key belongs to a flagged component. It is
// the gate hot path: the byte key is looked up without materialising a
// string, the root walk does not mutate, and no allocation occurs.
func (g *Graph) FlaggedBytes(key []byte) bool {
	g.mu.RLock()
	i, ok := g.idx[string(key)]
	if !ok {
		g.mu.RUnlock()
		return false
	}
	f := g.nodes[g.findRead(i)].flagged
	g.mu.RUnlock()
	return f
}

// Flagged reports whether key belongs to a flagged component.
func (g *Graph) Flagged(key string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.idx[key]
	if !ok {
		return false
	}
	return g.nodes[g.findRead(i)].flagged
}

// Component summarises the component a key belongs to.
type Component struct {
	// Size is the node count; Types the distinct entity-type count.
	Size  int
	Types int
	// Score is the accumulated weak-signal score.
	Score   float64
	Flagged bool
}

// Lookup returns the component summary for key; ok is false for an
// unknown entity.
func (g *Graph) Lookup(key string) (Component, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.idx[key]
	if !ok {
		return Component{}, false
	}
	n := &g.nodes[g.findRead(i)]
	return Component{
		Size:    int(n.size),
		Types:   bits.OnesCount16(n.typeMask),
		Score:   n.score,
		Flagged: n.flagged,
	}, true
}

// Stats is the graph's observability snapshot.
type Stats struct {
	Nodes, Edges int
	// Components is the current connected-component count;
	// FlaggedComponents how many of them are flagged.
	Components        int
	FlaggedComponents int
	// Observations counts Observe calls that recorded at least one key;
	// Evicted counts nodes dropped by decay evictions.
	Observations uint64
	Evicted      uint64
}

// Stats snapshots the graph.
func (g *Graph) Stats() Stats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return Stats{
		Nodes:             len(g.idx),
		Edges:             len(g.edges),
		Components:        g.components,
		FlaggedComponents: g.flagRoots,
		Observations:      g.tick,
		Evicted:           g.evicted,
	}
}
