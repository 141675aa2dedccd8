package cluster

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/loadgen"
	"funabuse/internal/simclock"
)

// goldenRuleWindow is the detection window of the golden runs.
const goldenRuleWindow = 20 * time.Second

// goldenResult is one replay of the golden plan: the fleet it ran on, the
// run result, every fingerprint key the plan presented, and the virtual
// instant the run ended at.
type goldenResult struct {
	c    *Cluster
	res  *loadgen.Result
	keys []string
	end  time.Time
}

// goldenRun replays the seed-1 distributed low-and-slow plan against a
// fresh fleet under virtual pacing. Virtual pacing serializes dispatch
// (one request in flight, the manual clock set to each arrival), so
// gossip rounds fire at deterministic request boundaries regardless of
// the worker count. The front is wrapped to record each request's
// fingerprint as the engine keys it.
func goldenRun(t *testing.T, nodes, workers int, router Router, replicate bool) goldenResult {
	t.Helper()
	sc := loadgen.LowAndSlowScenario(1, epoch)
	plan, err := loadgen.BuildPlan(sc)
	if err != nil {
		t.Fatalf("build plan: %v", err)
	}
	manual := simclock.NewManual(epoch)
	c := New(Config{
		Nodes:          nodes,
		Clock:          manual,
		Router:         router,
		Gossip:         2 * time.Second,
		ReplicateRules: replicate,
		ReplicateState: replicate,
		RuleThreshold:  80,
		RuleWindow:     goldenRuleWindow,
		RulePaths:      []string{loadgen.PathHold, loadgen.PathSMS},
	})
	var mu sync.Mutex
	seen := make(map[string]bool)
	front := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fp, err := strconv.ParseUint(r.Header.Get(httpgate.FingerprintHeader), 16, 64); err == nil {
			mu.Lock()
			seen["fp:"+strconv.FormatUint(fp, 16)] = true
			mu.Unlock()
		}
		front.ServeHTTP(w, r)
	}))
	defer srv.Close()
	runner, err := loadgen.NewRunner(loadgen.RunnerConfig{
		Plan:    plan,
		BaseURL: srv.URL,
		Workers: workers,
		Virtual: manual,
	})
	if err != nil {
		t.Fatalf("new runner: %v", err)
	}
	res, err := runner.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		t.Fatal("the plan presented no fingerprints")
	}
	return goldenResult{c: c, res: res, keys: keys, end: manual.Now()}
}

// checkInstants are the instants the golden tests read rates at: the
// run's end and half a window before it.
func (g goldenResult) checkInstants() []time.Time {
	return []time.Time{g.end, g.end.Add(-goldenRuleWindow / 2)}
}

// fleetRate is key's in-window rate summed over every node's engine.
func (c *Cluster) fleetRate(key string, now time.Time) int {
	total := 0
	for _, n := range c.nodes {
		total += n.engine.Rate(key, now)
	}
	return total
}

// requireLive fails unless some key still has in-window volume at now,
// so the rate comparisons cannot pass on empty windows.
func requireLive(t *testing.T, c *Cluster, keys []string, now time.Time) {
	t.Helper()
	for _, k := range keys {
		if c.fleetRate(k, now) > 0 {
			return
		}
	}
	t.Fatalf("no fingerprint has in-window volume at %v", now)
}

func TestClusterGoldenWorkers(t *testing.T) {
	// Worker count is a throughput knob, never a semantics knob: the
	// same plan through 1 and 4 workers must leave every node's engine
	// with identical rates, identical rule logs, and identical per-class
	// tallies.
	g1 := goldenRun(t, 4, 1, NewRandomRouter(1), true)
	g4 := goldenRun(t, 4, 4, NewRandomRouter(1), true)
	c1, c4 := g1.c, g4.c

	if !reflect.DeepEqual(c1.Rules(), c4.Rules()) {
		t.Fatalf("rule logs differ across worker counts:\n1: %+v\n4: %+v", c1.Rules(), c4.Rules())
	}
	if !reflect.DeepEqual(g1.keys, g4.keys) || !g1.end.Equal(g4.end) {
		t.Fatalf("presented fingerprints or end instant differ across worker counts")
	}
	for _, now := range g1.checkInstants() {
		for _, k := range g1.keys {
			for i := range c1.nodes {
				if r1, r4 := c1.nodes[i].engine.Rate(k, now), c4.nodes[i].engine.Rate(k, now); r1 != r4 {
					t.Fatalf("node %d rate of %s at %v: %d with 1 worker, %d with 4", i, k, now, r1, r4)
				}
			}
		}
		requireLive(t, c1, g1.keys, now)
	}
	if o1, o4 := c1.Stats().Observed, c4.Stats().Observed; o1 != o4 {
		t.Fatalf("observed %d vs %d across worker counts", o1, o4)
	}
	if !reflect.DeepEqual(g1.res.Classes, g4.res.Classes) {
		t.Fatalf("class tallies differ across worker counts:\n1: %+v\n4: %+v", g1.res.Classes, g4.res.Classes)
	}
	if !reflect.DeepEqual(g1.res.Rotations(), g4.res.Rotations()) {
		t.Fatal("rotation logs differ across worker counts")
	}
	if r1, r4 := c1.GossipRounds(), c4.GossipRounds(); r1 == 0 || r1 != r4 {
		t.Fatalf("gossip rounds %d vs %d, want equal and > 0", r1, r4)
	}
}

// normalizedRules projects a rule log onto (Key, At): under hash routing
// a key's owner differs between fleet sizes, so Origin and Seq are
// topology, not semantics.
func normalizedRules(rules []Rule) []Rule {
	out := make([]Rule, len(rules))
	for i, r := range rules {
		out[i] = Rule{Key: r.Key, At: r.At}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].At.Equal(out[j].At) {
			return out[i].At.Before(out[j].At)
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func TestClusterGoldenNodesHashRouted(t *testing.T) {
	// Under hash routing every fingerprint's volume lands wholly on its
	// owner, so sharding the fleet 1→4 ways must not change detection:
	// each fingerprint's rate summed over the four engines is the one
	// engine's rate, and the (Key, At) rule log is invariant.
	g1 := goldenRun(t, 1, 2, HashRouter{}, true)
	g4 := goldenRun(t, 4, 2, HashRouter{}, true)
	c1, c4 := g1.c, g4.c

	if !reflect.DeepEqual(normalizedRules(c1.Rules()), normalizedRules(c4.Rules())) {
		t.Fatalf("normalized rule logs differ across fleet sizes:\n1: %+v\n4: %+v",
			normalizedRules(c1.Rules()), normalizedRules(c4.Rules()))
	}
	if !reflect.DeepEqual(g1.keys, g4.keys) || !g1.end.Equal(g4.end) {
		t.Fatalf("presented fingerprints or end instant differ across fleet sizes")
	}
	for _, now := range g1.checkInstants() {
		for _, k := range g1.keys {
			if r1, r4 := c1.fleetRate(k, now), c4.fleetRate(k, now); r1 != r4 {
				t.Fatalf("rate of %s at %v: %d on 1 node, %d summed over 4", k, now, r1, r4)
			}
		}
		requireLive(t, c1, g1.keys, now)
	}
	if o1, o4 := c1.Stats().Observed, c4.Stats().Observed; o1 != o4 {
		t.Fatalf("observed %d vs %d across fleet sizes", o1, o4)
	}
	if !reflect.DeepEqual(g1.res.Classes, g4.res.Classes) {
		t.Fatalf("class tallies differ across fleet sizes:\n1: %+v\n4: %+v", g1.res.Classes, g4.res.Classes)
	}
}
