package cluster

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/obs"
	"funabuse/internal/simclock"
)

var epoch = time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)

func TestJumpHashStableAndBalanced(t *testing.T) {
	const keys = 10_000
	counts := make([]int, 8)
	for k := range uint64(keys) {
		b := jumpHash(k*0x9E3779B97F4A7C15+1, 8)
		if b < 0 || b >= 8 {
			t.Fatalf("bucket %d out of range", b)
		}
		counts[b]++
	}
	for b, c := range counts {
		if c < keys/8/2 || c > keys/8*2 {
			t.Fatalf("bucket %d holds %d of %d keys, want rough balance", b, c, keys)
		}
	}
	// Consistency: growing the fleet must never move a key between two
	// pre-existing buckets.
	for k := range uint64(1000) {
		small, large := jumpHash(k, 4), jumpHash(k, 5)
		if large != small && large != 4 {
			t.Fatalf("key %d moved %d→%d when bucket 4 joined", k, small, large)
		}
	}
}

// fleetRequest builds a fingerprinted request the gates accept.
func fleetRequest(path string, fp uint64, ip string) *http.Request {
	r := httptest.NewRequest(http.MethodGet, path, nil)
	r.Header.Set(httpgate.FingerprintHeader, strconv.FormatUint(fp, 16))
	r.Header.Set("X-Forwarded-For", ip)
	return r
}

func TestHashRouterPinsFingerprint(t *testing.T) {
	manual := simclock.NewManual(epoch)
	c := New(Config{Nodes: 4, Clock: manual})
	h := c.Handler()
	const fp = 0xfeed
	for i := range 20 {
		manual.Advance(time.Second)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, fleetRequest("/search", fp, "198.51.0.9"))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	// All volume landed on exactly one node.
	nodesHit := 0
	for i := range 4 {
		if v, _ := obs.Value(c.NodeGate(i).Collector(), httpgate.MetricAdmitted); v > 0 {
			nodesHit++
		}
	}
	if nodesHit != 1 {
		t.Fatalf("fingerprint volume spread over %d nodes, want 1", nodesHit)
	}
}

// TestFrontAndDecideAgreeOnAttribution pins that the HTTP front routes on
// the same client address its gates attribute: for fingerprint-less
// requests HashRouter hashes the IP, so Handler and Decide must pick the
// same node whether the first X-Forwarded-For hop is valid, empty or not
// an address (the latter two fall back to the socket address).
func TestFrontAndDecideAgreeOnAttribution(t *testing.T) {
	const nodes = 8
	served := func(c *Cluster) int {
		for i := range nodes {
			if v, _ := obs.Value(c.NodeGate(i).Collector(), httpgate.MetricDenied); v > 0 {
				return i
			}
		}
		t.Fatal("no node decided the request")
		return -1
	}
	for _, xff := range []string{"198.51.100.7", "198.51.100.7, 10.0.0.1", ",1.2.3.4", "garbage"} {
		for port := range 8 {
			build := func() *http.Request {
				r := httptest.NewRequest(http.MethodGet, "/search", nil)
				r.RemoteAddr = "203.0.113." + strconv.Itoa(port) + ":4711"
				r.Header.Set("X-Forwarded-For", xff)
				return r
			}
			front := New(Config{Nodes: nodes, Clock: simclock.NewManual(epoch)})
			front.Handler().ServeHTTP(httptest.NewRecorder(), build())

			direct := New(Config{Nodes: nodes, Clock: simclock.NewManual(epoch)})
			r := build()
			direct.Decide(r, direct.NodeGate(0).Client(r))

			if f, d := served(front), served(direct); f != d {
				t.Fatalf("xff %q from %s: Handler served on node %d, Decide on node %d", xff, build().RemoteAddr, f, d)
			}
		}
	}
}

func TestRuleReplicationDelta(t *testing.T) {
	manual := simclock.NewManual(epoch)
	c := New(Config{
		Nodes:          3,
		Clock:          manual,
		Gossip:         time.Second,
		ReplicateRules: true,
		RuleThreshold:  3,
		RuleWindow:     time.Minute,
	})
	h := c.Handler()
	const fp = 0xabc
	// Drive the owner past the threshold; HashRouter pins the print.
	for range 3 {
		manual.Advance(100 * time.Millisecond)
		h.ServeHTTP(httptest.NewRecorder(), fleetRequest("/booking/hold", fp, "203.0.0.1"))
	}
	rules := c.Rules()
	if len(rules) != 1 {
		t.Fatalf("%d rules originated, want 1", len(rules))
	}
	if rules[0].Key != "fp:abc" || rules[0].Seq != 1 {
		t.Fatalf("unexpected rule %+v", rules[0])
	}
	now := manual.Now()
	origin := rules[0].Origin
	for i := range 3 {
		if got := c.NodeBlocks(i).Blocked("fp:abc", now); got != (i == origin) {
			t.Fatalf("node %d blocked=%v before gossip, origin %d", i, got, origin)
		}
	}
	c.Gossip(now.Add(500 * time.Millisecond))
	for i := range 3 {
		if !c.NodeBlocks(i).Blocked("fp:abc", now.Add(time.Second)) {
			t.Fatalf("node %d missing replicated rule", i)
		}
	}
	st := c.Stats()
	if st.RulesReplicated != 2 {
		t.Fatalf("rules replicated %d, want 2 (one per peer)", st.RulesReplicated)
	}
	if st.MeanPropagation != 500*time.Millisecond {
		t.Fatalf("mean propagation %v, want 500ms", st.MeanPropagation)
	}
	// Re-gossip: the delta is empty, nothing re-applies.
	c.Gossip(now.Add(2 * time.Second))
	if got := c.Stats().RulesReplicated; got != 2 {
		t.Fatalf("rules replicated %d after idempotent round, want 2", got)
	}
}

// spreadRouter alternates nodes per request, modelling the dumb LB
// deterministically without a seeded draw.
type spreadRouter struct{ n int }

func (r *spreadRouter) Route(_ RouteInfo, nodes int) int {
	r.n++
	return r.n % nodes
}

func TestFleetViewCatchesDistributedVolume(t *testing.T) {
	run := func(replicate bool) Stats {
		manual := simclock.NewManual(epoch)
		c := New(Config{
			Nodes:          2,
			Clock:          manual,
			Router:         &spreadRouter{},
			Gossip:         time.Second,
			ReplicateState: replicate,
			ReplicateRules: replicate,
			RuleThreshold:  10,
			RuleWindow:     time.Minute,
		})
		h := c.Handler()
		// One fingerprint, 14 requests split 7/7: neither node's local
		// window ever reaches 10, the fleet view does after one gossip.
		for range 14 {
			manual.Advance(200 * time.Millisecond)
			h.ServeHTTP(httptest.NewRecorder(), fleetRequest("/booking/hold", 0xd15, "203.0.0.7"))
		}
		return c.Stats()
	}
	if st := run(false); st.RulesOriginated != 0 {
		t.Fatalf("per-node defence originated %d rules, distributed volume should stay invisible", st.RulesOriginated)
	}
	if st := run(true); st.RulesOriginated == 0 {
		t.Fatal("sketch-replicated defence missed the distributed volume")
	}
}

func TestClusterCollectorFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	manual := simclock.NewManual(epoch)
	c := New(Config{
		Nodes:          2,
		Clock:          manual,
		Telemetry:      reg,
		Gossip:         time.Second,
		ReplicateRules: true,
		ReplicateState: true,
		RuleThreshold:  2,
		RuleWindow:     time.Minute,
	})
	h := c.Handler()
	for range 4 {
		manual.Advance(300 * time.Millisecond)
		h.ServeHTTP(httptest.NewRecorder(), fleetRequest("/booking/hold", 0xbeef, "203.0.0.2"))
	}
	if v, ok := obs.Value(c.Collector(), MetricNodes); !ok || v != 2 {
		t.Fatalf("cluster_nodes %v/%v, want 2", v, ok)
	}
	if v, ok := obs.Value(c.Collector(), MetricFleetAdmitted); !ok || v == 0 {
		t.Fatalf("fleet admitted %v/%v, want > 0", v, ok)
	}
	if v, ok := obs.Value(c.Collector(), MetricRulesOriginated,
		obs.Label{Name: "node", Value: strconv.Itoa(c.Rules()[0].Origin)}); !ok || v != 1 {
		t.Fatalf("per-node rules originated %v/%v, want 1", v, ok)
	}
	// The registry holds per-node gate families without collisions.
	samples := reg.Gather()
	seen := make(map[string]bool, len(samples))
	for _, s := range samples {
		id := s.Name
		for _, l := range s.Labels {
			id += "|" + l.Name + "=" + l.Value
		}
		if seen[id] {
			t.Fatalf("duplicate series %s", id)
		}
		seen[id] = true
	}
}
