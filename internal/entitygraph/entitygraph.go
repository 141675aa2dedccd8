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
// Memory is bounded: the graph holds at most MaxNodes nodes and four
// times as many co-occurrence edges. When a budget is exceeded the graph
// decays deterministically — the nodes least recently observed (ties
// broken by key) are evicted down to 3/4 of the budget and the union-find
// is rebuilt from the surviving edges, preserving per-node accrued score
// and sticky flags. Two graphs fed the same observation sequence evict
// identically, which is what the loadgen determinism goldens rely on.
//
// What is exact: the victim set (keytab's nth-element selection by tick,
// keys read only to order the nodes of one observation), every component's
// size, type span, score and flag after the rebuild, and all of Stats. What
// is amortised: the rebuild itself — one pass over the node slab and the
// edge map per quarter budget of new nodes. Nodes live in the stable slots
// of a keytab.Table, which holds each key's bytes in its node's slot: a
// survivor keeps its slot through any number of evictions and a victim's
// slot goes on a free list for the next new key, so an eviction compacts
// and reallocates nothing, and a saturated graph's inserts allocate
// nothing at all. Because slots are stable, an edge is keyed by its two
// slots packed in a uint64 rather than by its two keys: recording a
// co-occurrence hashes 8 bytes, and the rebuild re-unions by slot without
// hashing a key. A slot is never reused while an edge still names it — the
// eviction that frees a slot drops every edge with a dead endpoint in the
// same step. Only the edge-budget branch (a hub with more edges than the
// edge budget) still sorts, by (tick, lower key, higher key), and allocates
// while it does.
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
	"sync"

	"funabuse/internal/keytab"
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

// keyType classifies a node key by its prefix.
func keyType[K string | []byte](key K) Type {
	if len(key) < 3 || key[2] != ':' {
		return TypeOther
	}
	switch string(key[:2]) {
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
	// MaxNodes is the hard node budget, and four times it the edge
	// budget; exceeding either triggers a deterministic decay eviction
	// down to 3/4 of the budget. Default 65536 nodes.
	MaxNodes int
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

	// maxEdges overrides the edge budget; only in-package tests set it,
	// to make edge eviction fire independently of node eviction.
	maxEdges int
}

func (c Config) withDefaults() Config {
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 16
	}
	if c.maxEdges <= 0 {
		c.maxEdges = 4 * c.MaxNodes
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

// node is one entity in a stable slot of the graph's table; a free slot
// holds node{parent: slot}. parent/size implement the union-find; size,
// typeMask, score and flagged are authoritative only at a root (except
// during eviction, when flags are propagated to members so they survive
// the rebuild). own is the node's personally accrued weak score — the
// quantity that survives eviction and from which root scores are rebuilt.
type node struct {
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
	nodes *keytab.Table[node]
	edges map[edgeID]uint64 // last tick the co-occurrence was observed

	tick       uint64
	components int
	flagRoots  int
	evicted    uint64

	scratch []int32
}

// New returns an empty graph under cfg's budgets.
func New(cfg Config) *Graph {
	cfg = cfg.withDefaults()
	return &Graph{
		cfg:   cfg,
		nodes: keytab.New[node](cfg.MaxNodes),
		edges: make(map[edgeID]uint64),
	}
}

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
		id, ok := g.nodes.FindString(k)
		if !ok {
			id = g.nodes.InsertString(k)
			g.add(id, keyType(k))
		}
		ids = append(ids, id)
	}
	g.observe(ids, weak)
}

// ObserveBytes is Observe for keys assembled in reusable byte buffers —
// the per-request feed path. Known keys are resolved without materialising
// a string, and a new key is copied into its node's slot, so an
// observation allocates nothing once the graph has reached its working
// size. The graph keeps no reference to keys.
func (g *Graph) ObserveBytes(keys [][]byte, weak float64) {
	g.mu.Lock()
	defer g.mu.Unlock()

	ids := g.scratch[:0]
	for _, k := range keys {
		if len(k) == 0 {
			continue
		}
		id, ok := g.nodes.Find(k)
		if !ok {
			id = g.nodes.Insert(k)
			g.add(id, keyType(k))
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
		g.nodes.At(id).tick = g.tick
	}
	anchor := ids[0]
	for _, id := range ids[1:] {
		g.link(anchor, id)
	}
	root := g.find(anchor)
	if weak > 0 {
		g.nodes.At(anchor).own += weak
		g.nodes.At(root).score += weak
	}
	g.refreshFlag(root)

	if g.nodes.Len() > g.cfg.MaxNodes || len(g.edges) > g.cfg.maxEdges {
		g.evict()
	}
}

// add makes the freshly inserted slot i a singleton component of the given
// type. Callers hold the write lock.
func (g *Graph) add(i int32, typ Type) {
	*g.nodes.At(i) = node{typ: typ, parent: i, size: 1, typeMask: 1 << typ}
	g.components++
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
	root := g.findRead(i)
	for n := g.nodes.At(i); n.parent != root; n = g.nodes.At(i) {
		n.parent, i = root, n.parent
	}
	return root
}

// findRead resolves i's root without mutating, for lock-shared readers.
func (g *Graph) findRead(i int32) int32 {
	for p := g.nodes.At(i).parent; p != i; p = g.nodes.At(i).parent {
		i = p
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
	na, nb := g.nodes.At(ra), g.nodes.At(rb)
	if na.size < nb.size {
		ra, na, nb = rb, nb, na
	}
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
	n := g.nodes.At(root)
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

// evict is the deterministic decay step: drop the least recently
// observed nodes (ties by key) down to 3/4 of the node budget, drop
// edges that lost an endpoint (then the oldest edges if still over
// budget), and rebuild the union-find from the survivors. Per-node
// accrued score and sticky flags survive; a flagged component that the
// eviction splits leaves every surviving fragment flagged.
//
// Survivors keep their slots: only the victims leave the table, nothing is
// compacted or reallocated, and the rebuild resets and re-unions by slot.
func (g *Graph) evict() {
	slots := int32(g.nodes.Slots())
	// Sticky flags must survive the rebuild at node granularity.
	for i := range slots {
		if g.nodes.At(g.findRead(i)).flagged {
			g.nodes.At(i).flagged = true
		}
	}

	if k := g.nodes.Len() - g.cfg.MaxNodes*3/4; k > 0 {
		// A free slot is its own unflagged root, so the walks over the
		// whole slab above and below pass through it untouched.
		g.nodes.EvictOldest(k, func(n *node) (int64, int64) { return int64(n.tick), 0 },
			func(i int32, n *node) { *n = node{parent: i} })
		g.evicted += uint64(k)
	}

	for i := range slots {
		n := g.nodes.At(i)
		n.parent = i
		n.size = 1
		n.typeMask = 1 << n.typ
		n.score = n.own
	}
	g.components = g.nodes.Len()

	// Surviving edges: both endpoints kept. Determinism note: map
	// iteration order is random, but edge filtering is order-independent
	// and the rebuild unions below are commutative in their aggregates,
	// so the resulting components, scores and flags are identical across
	// runs; only when the edge budget itself overflows is an explicit
	// sort imposed.
	for e := range g.edges {
		if a, b := e.ends(); !g.nodes.Used(a) || !g.nodes.Used(b) {
			delete(g.edges, e)
		}
	}
	if target := g.cfg.maxEdges * 3 / 4; len(g.edges) > target {
		g.evictEdges(len(g.edges) - target)
	}

	g.flagRoots = 0
	for e := range g.edges {
		g.union(e.ends())
	}
	// union counts a flagged-flagged merge as losing one flagged root
	// starting from flagRoots = 0, so recount from the rebuilt forest.
	g.flagRoots = 0
	for i := range slots {
		if n := g.nodes.At(i); g.nodes.Used(i) && n.parent == i && n.flagged {
			g.flagRoots++
		}
	}
	for i := range slots {
		if g.nodes.Used(i) && g.nodes.At(i).parent == i {
			g.refreshFlag(i)
		}
	}
}

// evictEdges drops the n least recently observed edges, ties broken by the
// endpoint keys in order. Only a hub pattern — few nodes, many edges —
// gets here, so it sorts, and allocates its own scratch.
func (g *Graph) evictEdges(n int) {
	type aged struct {
		e    edgeID
		tick uint64
		a, b int32 // endpoint slots, key a < key b
	}
	all := make([]aged, 0, len(g.edges))
	for e, t := range g.edges {
		a, b := e.ends()
		if g.nodes.CompareKeys(b, a) < 0 {
			a, b = b, a
		}
		all = append(all, aged{e, t, a, b})
	}
	slices.SortFunc(all, func(x, y aged) int {
		return cmp.Or(cmp.Compare(x.tick, y.tick), g.nodes.CompareKeys(x.a, y.a), g.nodes.CompareKeys(x.b, y.b))
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
	i, ok := g.nodes.Find(key)
	if !ok {
		g.mu.RUnlock()
		return false
	}
	f := g.nodes.At(g.findRead(i)).flagged
	g.mu.RUnlock()
	return f
}

// Flagged reports whether key belongs to a flagged component.
func (g *Graph) Flagged(key string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.nodes.FindString(key)
	if !ok {
		return false
	}
	return g.nodes.At(g.findRead(i)).flagged
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
	i, ok := g.nodes.FindString(key)
	if !ok {
		return Component{}, false
	}
	n := g.nodes.At(g.findRead(i))
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
		Nodes:             g.nodes.Len(),
		Edges:             len(g.edges),
		Components:        g.components,
		FlaggedComponents: g.flagRoots,
		Observations:      g.tick,
		Evicted:           g.evicted,
	}
}
