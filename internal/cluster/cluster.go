// Package cluster runs a fleet of httpgate nodes behind one routing
// front, with anti-entropy replication between nodes: blocklist rule
// deltas carrying per-rule origin and sequence metadata, and each node's
// per-key sliding windows in the compact signal.State wire form.
//
// The package exists to model the paper's core warning at system scale:
// functional abuse is distributed by design, so an attacker who spreads
// volume across enough sessions stays under every per-node threshold.
// Each node here runs the usual per-node defence (gate, blocklist,
// signal engine); what replication adds is the fleet view — a node
// thresholds on its local sliding-window rate plus the rates in the last
// state it holds of every peer, so volume invisible to every single
// vantage point still crosses the line once windows are shared.
//
// Replication is anti-entropy on a configurable gossip interval,
// piggybacked on request handling: the front checks the interval before
// routing each request, so under loadgen's virtual pacing (one request
// in flight, clock set per arrival) full cluster runs are
// seed-deterministic. A node keeps one read-only rate view per peer
// (signal.Rates, an index into the peer's published bytes) — a fresh
// fetch replaces that peer's slot, a failed one leaves it alone — and
// sums the slots when it needs a fleet rate, so no snapshot is ever
// folded into a running total and nothing can be counted twice. A round
// decodes each distinct published payload once, and every node that
// fetched those bytes shares the view. The in-process Transport is the
// first implementation; the interface is the seam for real sockets.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/mitigate"
	"funabuse/internal/obs"
	"funabuse/internal/resilience"
	"funabuse/internal/signal"
	"funabuse/internal/simclock"
)

// FleetDegradedHeader is set on responses served by a node whose gossip
// view of some peer has gone stale (see staleRounds): the node keeps
// serving on its last-known fleet state rather than stalling the request
// path, and this header is how callers (and the load generator) see that
// the decision ran degraded.
const FleetDegradedHeader = "X-Fleet-Degraded"

// FleetDegradedStale is the FleetDegradedHeader value for gossip
// staleness, the one degradation mode the anti-entropy loop can enter.
const FleetDegradedStale = "gossip-stale"

// fleetDegradedStale is FleetDegradedStale as a header value, assigned
// into the header map instead of through Set so that stamping a response
// allocates nothing. It is shared read-only with len == cap, so an Add on
// the same key appends to a copy.
var fleetDegradedStale = []string{FleetDegradedStale}

// okBody is what every node's backend serves behind its gate.
var okBody = []byte("ok\n")

// serveOK is every node's backend. It never calls Header, so net/http
// sniffs the body's Content-Type (text/plain; charset=utf-8) and skips
// the header clone it makes for a handler that touched the map.
func serveOK(w http.ResponseWriter, _ *http.Request) {
	_, _ = w.Write(okBody) // a failed write is the client's lost connection
}

// Config assembles a Cluster.
type Config struct {
	// Nodes is the fleet size; non-positive selects 1.
	Nodes int
	// Clock is shared by every node's gate and engine and by the gossip
	// loop; defaults to the real clock. Deterministic runs pass a
	// simclock.Manual driven by the load generator's virtual pacing.
	Clock simclock.Clock
	// Router picks the serving node per request; nil selects HashRouter.
	Router Router
	// Transport carries replication snapshots; nil selects NewInProc.
	Transport Transport

	// Gossip is the anti-entropy interval: at most one exchange round
	// runs per elapsed interval, triggered from the front before a
	// request is routed (or forced with Cluster.Gossip). Zero disables
	// replication entirely.
	Gossip time.Duration
	// ReplicateRules ships each node's originated-rule log; peers apply
	// the per-origin delta into their own blocklists.
	ReplicateRules bool
	// ReplicateState ships each node's per-key sliding windows as an
	// encoded signal.State (its sketch sections empty); peers keep a rate
	// view of the latest one per node and their detectors add its rates
	// to local ones.
	ReplicateState bool

	// FetchRetry tunes the jittered-backoff retry wrapped around every
	// peer fetch. The zero value selects 2 attempts; Attempts of 1
	// disables retry. Under a manual clock backoffs are no-ops (virtual
	// runs never sleep), so Attempts alone bounds the loop there.
	FetchRetry resilience.RetryConfig

	// RuleThreshold arms per-node detection: when one fingerprint's
	// fleet-view volume — its local sliding-window rate plus its rate in
	// every peer's last state — reaches the threshold on a watched path,
	// the node originates a fingerprint block rule. Zero disables
	// detection.
	RuleThreshold int
	// RuleWindow is the detection sliding window (and the node engines'
	// window); defaults to one minute.
	RuleWindow time.Duration
	// RulePaths restricts detection counting; empty watches every path.
	RulePaths []string

	// Telemetry, when non-nil, registers every node's gate collector
	// (labelled node=<i>), the cluster collector, and the
	// rule-propagation histogram on the registry.
	Telemetry *obs.Registry
}

// staleRounds is how many gossip intervals may pass since a node's last
// good fetch of a peer before the node is marked degraded: it keeps
// serving on last-known fleet state and stamps FleetDegradedHeader on its
// responses. With gossip disabled nothing is ever marked degraded.
const staleRounds = 3

// Gossip fetch failure reasons, indexing Cluster.failures and labelling
// the MetricGossipFailures family.
const (
	failTransport = iota
	failDecode
	failUnpublished
	numFailReasons
)

// failReasons names the counter indices for the reason label.
var failReasons = [numFailReasons]string{"transport", "decode", "unpublished"}

// Cluster is a running in-process gate fleet.
type Cluster struct {
	cfg        Config
	clock      simclock.Clock
	router     Router
	transport  Transport
	nodes      []*node
	start      time.Time
	staleAfter time.Duration
	fetchRetry resilience.RetryConfig
	sleep      func(time.Duration)

	gossipMu   sync.Mutex
	lastGossip atomic.Int64
	rounds     atomic.Uint64
	failures   [numFailReasons]atomic.Uint64

	propHist  *obs.Histogram
	roundHist *obs.Histogram
	propSum   atomic.Int64 // nanoseconds, for MeanPropagation
	propCount atomic.Uint64
}

// node is one fleet member: a gate over its own blocklist, a local
// signal engine keyed by fingerprint, and the replication state — the
// originated-rule log it publishes, per-origin high-water marks for the
// deltas it has applied, and a rate view of each peer's last state.
type node struct {
	id      int
	cluster *Cluster
	clock   simclock.Clock
	gate    *httpgate.Gate
	blocks  *mitigate.BlockList
	engine  *signal.Engine
	handler http.Handler
	watch   map[string]bool

	mu         sync.Mutex
	seq        uint64
	originated []Rule
	seen       map[string]bool
	applied    map[int]uint64
	replicated uint64
	// peers holds, by node id, a rate view of the last snapshot that
	// fetched and decoded cleanly from each peer (nil until one does, for
	// a snapshot shipped without state, and for the node itself);
	// lastOKAt is when. A peer that cannot be reached this round keeps
	// contributing its last-known state — graceful degradation instead of
	// a shrinking fleet view. A view may be shared with other nodes that
	// fetched the same bytes; views are only ever read.
	peers    []*signal.Rates
	lastOKAt map[int]time.Time

	// degraded is recomputed after each absorb: some peer's last good
	// fetch is older than staleRounds gossip intervals. degradedServed
	// counts responses this node stamped with FleetDegradedHeader.
	degraded       atomic.Bool
	degradedServed atomic.Uint64
}

// New assembles the fleet.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Router == nil {
		cfg.Router = HashRouter{}
	}
	if cfg.Transport == nil {
		cfg.Transport = NewInProc()
	}
	if cfg.RuleWindow <= 0 {
		cfg.RuleWindow = time.Minute
	}
	c := &Cluster{
		cfg:        cfg,
		clock:      cfg.Clock,
		router:     cfg.Router,
		transport:  cfg.Transport,
		staleAfter: staleRounds * max(cfg.Gossip, 0),
		fetchRetry: cfg.FetchRetry,
		sleep:      time.Sleep,
	}
	if c.fetchRetry.Attempts == 0 {
		c.fetchRetry.Attempts = 2
	}
	if _, manual := cfg.Clock.(*simclock.Manual); manual {
		// Virtual runs must never sleep: the manual clock is driven by
		// the load schedule, so retry backoffs collapse to immediate
		// re-attempts and Attempts alone bounds the fetch loop.
		c.sleep = func(time.Duration) {}
	}
	c.start = c.clock.Now()
	c.lastGossip.Store(c.start.UnixNano())
	if cfg.Telemetry != nil {
		cfg.Telemetry.Help(MetricRulePropagation,
			"Delay between a rule's origination and its application on a peer.")
		c.propHist = cfg.Telemetry.Histogram(MetricRulePropagation, nil)
		cfg.Telemetry.Help(MetricGossipRoundSeconds,
			"Duration of each anti-entropy round on the cluster clock.")
		c.roundHist = cfg.Telemetry.Histogram(MetricGossipRoundSeconds, nil)
	}
	watch := make(map[string]bool, len(cfg.RulePaths))
	for _, p := range cfg.RulePaths {
		watch[p] = true
	}
	for i := range cfg.Nodes {
		n := &node{
			id:       i,
			cluster:  c,
			clock:    cfg.Clock,
			blocks:   mitigate.NewBlockList(0),
			watch:    watch,
			seen:     make(map[string]bool),
			applied:  make(map[int]uint64),
			peers:    make([]*signal.Rates, cfg.Nodes),
			lastOKAt: make(map[int]time.Time),
		}
		// Per-key windows only: the fleet reads nothing but Rate, so the
		// sketches stay off — neither updated per request nor shipped.
		n.engine = signal.NewEngine(signal.EngineConfig{Shards: 4, Window: cfg.RuleWindow})
		gcfg := httpgate.Config{
			Clock:              cfg.Clock,
			Blocks:             n.blocks,
			TrustForwardedFor:  true,
			RequireFingerprint: true,
			OnDecision:         n.onDecision,
		}
		var opts []httpgate.Option
		if cfg.Telemetry != nil {
			opts = append(opts,
				httpgate.WithTelemetry(cfg.Telemetry),
				httpgate.WithTelemetryLabels(obs.Label{Name: "node", Value: strconv.Itoa(i)}))
		}
		n.gate = httpgate.New(gcfg, opts...)
		n.handler = n.gate.Wrap(http.HandlerFunc(serveOK))
		c.nodes = append(c.nodes, n)
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.Register(c.Collector())
	}
	return c
}

// Handler returns the routing front: it runs any due gossip round, picks
// a node for the request's identity, and serves from that node's gate. A
// node whose gossip view has gone stale stamps FleetDegradedHeader but
// serves anyway — the failure model is degrade, never stall.
func (c *Cluster) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every node's gate is built from one Config, so any of them
		// attributes the request exactly as the serving gate will.
		n := c.route(c.nodes[0].gate.Client(r))
		if n.degraded.Load() {
			w.Header()[FleetDegradedHeader] = fleetDegradedStale
			n.degradedServed.Add(1)
		}
		n.handler.ServeHTTP(w, r)
	})
}

// onDecision is each node's gate hook: it feeds the local engine and
// originates a block rule when the fleet-view rate crosses the
// threshold. Blocklist denials are not counted — a fingerprint already
// caught must not re-trigger — and everything else is evidence of
// volume, mirroring loadgen.RuleDeployer.
func (n *node) onDecision(r *http.Request, info httpgate.ClientInfo, deniedBy string) {
	if !info.HasFingerprint || deniedBy == httpgate.ReasonBlocklist {
		return
	}
	if len(n.watch) > 0 && !n.watch[r.URL.Path] {
		return
	}
	now := n.clock.Now()
	var buf [len("fp:") + 16]byte
	key := string(strconv.AppendUint(append(buf[:0], "fp:"...), info.Fingerprint, 16))
	local := n.engine.Observe(key, now)
	if n.cluster.cfg.RuleThreshold <= 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if local+n.peerRate(key, now) < n.cluster.cfg.RuleThreshold || n.seen[key] {
		return
	}
	n.seen[key] = true
	n.seq++
	n.originated = append(n.originated, Rule{Origin: n.id, Seq: n.seq, Key: key, At: now})
	n.blocks.Block(key, now)
}

// peerRate sums key's in-window rate over the peer slots: the fleet view
// minus this node's own engine. Windows of one geometry count additively as
// long as no bucket lies after now — the fleet shares one clock, and a
// slot raced in microseconds ahead of now only leaves its newest events
// uncounted until the next request — so the sum is what one merged ring
// would answer. Callers hold n.mu.
func (n *node) peerRate(key string, now time.Time) int {
	total := 0
	for _, rs := range n.peers {
		if rs != nil {
			total += rs.Rate(key, now)
		}
	}
	return total
}

// maybeGossip runs one exchange round if at least one gossip interval has
// elapsed. At most one round runs per elapsed interval no matter how many
// requests race past the check: the first one through is elected to run
// it, and a request that finds a round already running passes on rather
// than queueing behind it.
func (c *Cluster) maybeGossip(now time.Time) {
	if c.cfg.Gossip <= 0 {
		return
	}
	if now.UnixNano()-c.lastGossip.Load() < int64(c.cfg.Gossip) {
		return
	}
	if !c.gossipMu.TryLock() {
		return
	}
	defer c.gossipMu.Unlock()
	if now.UnixNano()-c.lastGossip.Load() < int64(c.cfg.Gossip) {
		return
	}
	c.gossip(now)
	c.lastGossip.Store(now.UnixNano())
}

// Gossip forces one exchange round at the given instant, regardless of
// the interval.
func (c *Cluster) Gossip(now time.Time) {
	c.gossipMu.Lock()
	defer c.gossipMu.Unlock()
	c.gossip(now)
	c.lastGossip.Store(now.UnixNano())
}

// gossip runs one anti-entropy round: every node publishes its snapshot,
// then every node absorbs its peers'. Publishing completes first so a
// round converges the whole fleet on this round's snapshots, and the
// round's decode memo turns N×(N−1) fetched states into N decodes.
// Callers hold gossipMu.
func (c *Cluster) gossip(now time.Time) {
	for _, n := range c.nodes {
		c.transport.Publish(n.snapshot(c.cfg.ReplicateState))
	}
	var memo decodeMemo
	for _, n := range c.nodes {
		n.absorb(now, &memo)
	}
	c.rounds.Add(1)
	if c.roundHist != nil {
		c.roundHist.Observe(c.clock.Now().Sub(now).Seconds())
	}
}

// snapshot assembles the node's published payload.
func (n *node) snapshot(includeState bool) Snapshot {
	n.mu.Lock()
	rules := make([]Rule, len(n.originated))
	copy(rules, n.originated)
	n.mu.Unlock()
	snap := Snapshot{Node: n.id, Rules: rules}
	if includeState {
		snap.State = n.engine.State().Encode()
	}
	return snap
}

// absorb folds every peer's latest snapshot into this node: rule deltas
// beyond the per-origin high-water mark land in the local blocklist, and
// a rate view of the peer's state, decoded through the round's memo,
// replaces its slot in n.peers.
//
// This is the loop hardened for lossy networks. Each fetch runs behind
// the configured retry; a peer that cannot be reached keeps the slot it
// has, so the fleet view degrades to staleness instead of losing vantage
// points, and the failure is counted by reason. Nothing needs re-applying for such a peer: its slot
// already holds its last good state and its rules are already below the
// high-water mark.
func (n *node) absorb(now time.Time, memo *decodeMemo) {
	c := n.cluster
	for _, peer := range c.nodes {
		if peer.id == n.id {
			continue
		}
		snap, err := n.fetchPeer(peer.id)
		if err != nil {
			c.countFailure(err)
			continue
		}
		var rs *signal.Rates
		if c.cfg.ReplicateState && len(snap.State) > 0 {
			rs, err = memo.decode(snap.State)
		}
		if err != nil {
			// A fresh snapshot with corrupt state: its rule log still
			// decoded cleanly and is applied below, but the slot keeps the
			// last good state and the peer is not promoted to fresh, so
			// its staleness keeps growing.
			c.failures[failDecode].Add(1)
		} else {
			n.mu.Lock()
			n.peers[peer.id] = rs
			n.lastOKAt[peer.id] = now
			n.mu.Unlock()
		}
		if c.cfg.ReplicateRules {
			n.applyRules(snap, now)
		}
	}
	n.updateDegraded(now)
}

// decodeMemo holds one round's decoded state payloads, so each distinct
// payload is decoded once however many nodes fetched it: a node that
// fetched the same bytes shares the view, read-only, or the decode error,
// which each such fetch still counts. A round holds about N payloads, so
// a slice scan does; in-process transports hand every fetcher the same
// backing array, which bytes.Equal matches without reading it, and copies
// from a socket or a fault history match on content.
type decodeMemo []decoded

type decoded struct {
	payload []byte
	rates   *signal.Rates
	err     error
}

// decode returns the view of payload, decoding it on the round's first
// sight of those bytes.
func (m *decodeMemo) decode(payload []byte) (*signal.Rates, error) {
	for _, d := range *m {
		if bytes.Equal(d.payload, payload) {
			return d.rates, d.err
		}
	}
	rs, err := signal.DecodeRates(payload)
	*m = append(*m, decoded{payload: payload, rates: rs, err: err})
	return rs, err
}

// fetchPeer fetches one peer's snapshot through the transport, behind the
// configured jittered-backoff retry, which also isolates a panicking
// transport. ErrNotPublished stops the retry loop immediately: an
// unpublished snapshot is replication state, not a fault.
func (n *node) fetchPeer(peer int) (Snapshot, error) {
	c := n.cluster
	var snap Snapshot
	var unpublished bool
	err := resilience.Retry(c.fetchRetry, c.sleep, nil, func() error {
		s, ferr := fetchVia(c.transport, n.id, peer)
		if errors.Is(ferr, ErrNotPublished) {
			// Report success to stop the backoff loop; the flag carries
			// the real outcome past Retry.
			unpublished = true
			return nil
		}
		if ferr != nil {
			return ferr
		}
		snap, unpublished = s, false
		return nil
	})
	if err != nil {
		return Snapshot{}, err
	}
	if unpublished {
		return Snapshot{}, ErrNotPublished
	}
	return snap, nil
}

// countFailure buckets one failed peer fetch under its reason counter.
func (c *Cluster) countFailure(err error) {
	if errors.Is(err, ErrNotPublished) {
		c.failures[failUnpublished].Add(1)
	} else {
		c.failures[failTransport].Add(1)
	}
}

// updateDegraded recomputes the node's staleness flag: degraded while any
// peer's last good fetch is older than staleRounds gossip intervals (peers
// never fetched age from the cluster start).
func (n *node) updateDegraded(now time.Time) {
	c := n.cluster
	if c.staleAfter <= 0 || len(c.nodes) == 1 {
		n.degraded.Store(false)
		return
	}
	stale := false
	n.mu.Lock()
	for _, peer := range c.nodes {
		if peer.id == n.id {
			continue
		}
		last, ok := n.lastOKAt[peer.id]
		if !ok {
			last = c.start
		}
		if now.Sub(last) > c.staleAfter {
			stale = true
			break
		}
	}
	n.mu.Unlock()
	n.degraded.Store(stale)
}

// applyRules applies the delta of a peer's rule log past the high-water
// mark: idempotent on re-delivery, ordered by the origin's sequence.
func (n *node) applyRules(snap Snapshot, now time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	hw := n.applied[snap.Node]
	for _, r := range snap.Rules {
		if r.Seq <= hw {
			continue
		}
		hw = r.Seq
		n.blocks.Block(r.Key, now)
		n.seen[r.Key] = true
		n.replicated++
		n.cluster.observePropagation(now.Sub(r.At))
	}
	n.applied[snap.Node] = hw
}

// observePropagation records one rule's origination→application delay.
func (c *Cluster) observePropagation(d time.Duration) {
	c.propSum.Add(int64(d))
	c.propCount.Add(1)
	if c.propHist != nil {
		c.propHist.Observe(d.Seconds())
	}
}

// GossipRounds returns how many exchange rounds have run.
func (c *Cluster) GossipRounds() uint64 { return c.rounds.Load() }

// NodeGate returns node i's gate, for telemetry or direct inspection.
func (c *Cluster) NodeGate(i int) *httpgate.Gate { return c.nodes[i].gate }

// NodeBlocks returns node i's blocklist.
func (c *Cluster) NodeBlocks(i int) *mitigate.BlockList { return c.nodes[i].blocks }

// Rules returns every rule originated anywhere in the fleet, ordered by
// origination time (ties by origin, then sequence).
func (c *Cluster) Rules() []Rule {
	var all []Rule
	for _, n := range c.nodes {
		n.mu.Lock()
		all = append(all, n.originated...)
		n.mu.Unlock()
	}
	sortRules(all)
	return all
}

// sortRules orders rules by (At, Origin, Seq).
func sortRules(rules []Rule) {
	sort.Slice(rules, func(i, j int) bool {
		a, b := rules[i], rules[j]
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		return a.Seq < b.Seq
	})
}

// Stats is the cluster's aggregate replication snapshot.
type Stats struct {
	// Nodes is the fleet size.
	Nodes int
	// GossipRounds counts completed anti-entropy rounds.
	GossipRounds uint64
	// RulesOriginated counts rules deployed by fleet detectors.
	RulesOriginated int
	// RulesReplicated counts remote rule applications; a rule fully
	// propagated through an N-node fleet contributes N-1.
	RulesReplicated uint64
	// MeanPropagation is the average origination→application delay over
	// all replicated rules; zero when nothing replicated.
	MeanPropagation time.Duration
	// Observed is the fleet-wide engine observation total.
	Observed uint64
	// FetchFailures totals the gossip fetch failures over every reason;
	// FailuresByReason breaks them down.
	FetchFailures uint64
	// DegradedResponses counts responses stamped FleetDegradedHeader
	// because the serving node's gossip view had gone stale.
	DegradedResponses uint64
}

// Stats snapshots the fleet's replication counters; exact when quiesced.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Nodes:           len(c.nodes),
		GossipRounds:    c.rounds.Load(),
		RulesReplicated: c.propCount.Load(),
	}
	for i := range c.failures {
		st.FetchFailures += c.failures[i].Load()
	}
	for _, n := range c.nodes {
		n.mu.Lock()
		st.RulesOriginated += len(n.originated)
		n.mu.Unlock()
		st.Observed += n.engine.Observed()
		st.DegradedResponses += n.degradedServed.Load()
	}
	if st.RulesReplicated > 0 {
		st.MeanPropagation = time.Duration(
			uint64(c.propSum.Load()) / st.RulesReplicated)
	}
	return st
}

// FailuresByReason snapshots the gossip fetch-failure counters keyed by
// reason label; exact when quiesced.
func (c *Cluster) FailuresByReason() map[string]uint64 {
	out := make(map[string]uint64, numFailReasons)
	for i, r := range failReasons {
		out[r] = c.failures[i].Load()
	}
	return out
}

// NodeDegraded reports whether node i is currently marked gossip-stale.
func (c *Cluster) NodeDegraded(i int) bool { return c.nodes[i].degraded.Load() }

// PeerStaleness returns how long ago node i last fetched a good snapshot
// from peer j, as of the cluster clock (peers never fetched age from the
// cluster start).
func (c *Cluster) PeerStaleness(i, j int) time.Duration {
	n := c.nodes[i]
	n.mu.Lock()
	last, ok := n.lastOKAt[j]
	n.mu.Unlock()
	if !ok {
		last = c.start
	}
	return c.clock.Now().Sub(last)
}

// Fleet is a cluster serving on a real listener, the shape load runs
// drive (mirrors loadgen.StartTarget).
type Fleet struct {
	// Cluster is the running fleet behind the listener.
	Cluster *Cluster
	// URL is the front's root, ready for loadgen's RunnerConfig.BaseURL.
	URL string

	srv *http.Server
}

// Start assembles the cluster and serves its front on an ephemeral
// 127.0.0.1 port.
func Start(cfg Config) (*Fleet, error) {
	c := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: front listen: %w", err)
	}
	srv := &http.Server{Handler: c.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &Fleet{
		Cluster: c,
		URL:     "http://" + ln.Addr().String(),
		srv:     srv,
	}, nil
}

// Close shuts the front down.
func (f *Fleet) Close() error { return f.srv.Close() }
