package main

import (
	"fmt"
	"io"
	"time"

	"funabuse/internal/cluster"
	"funabuse/internal/loadgen"
	"funabuse/internal/metrics"
	"funabuse/internal/simclock"
)

// The clustersim scenario replays one distributed low-and-slow plan —
// steady per-fingerprint volume a dumb load balancer spreads across the
// whole fleet — against gate clusters of varying node count, routing
// policy and gossip interval. The headline curve is attacker leak rate
// vs. replication: a surge invisible to every single node is caught once
// the nodes share their per-key windows, and a shorter gossip interval
// shortens both the detection lag and the window in which a deployed rule
// only guards its origin node.
var clustersim = scenario[clusterArm, cluster.Stats]{
	name: "clustersim",
	plan: loadgen.LowAndSlowScenario,
	// The arms sweep the two tentpole axes: node count (1, 4, 8) and
	// gossip interval (none, 8 s, 4 s, 2 s). The single-node arm is the
	// all-seeing baseline; "per-node" is the same fleet with replication off.
	arms: []clusterArm{
		{name: "single-node", nodes: 1},
		{name: "per-node n=4", nodes: 4},
		{name: "merged n=4 g=8s", nodes: 4, gossip: 8 * time.Second, replicate: true},
		{name: "merged n=4 g=4s", nodes: 4, gossip: 4 * time.Second, replicate: true},
		{name: "merged n=4 g=2s", nodes: 4, gossip: 2 * time.Second, replicate: true},
		{name: "merged n=8 g=2s", nodes: 8, gossip: 2 * time.Second, replicate: true},
	},
	boot:   bootClustersimArm,
	report: clustersimReport,
}

// clustersimRuleThreshold is the fleet-view detection threshold: well
// above one node's 1/N share of the attacker volume, well below the
// attacker's full in-window rate.
const (
	clustersimRuleThreshold = 80
	clustersimRuleWindow    = 20 * time.Second
)

// clusterArm is one fleet configuration the plan is replayed against.
type clusterArm struct {
	name      string
	nodes     int
	gossip    time.Duration
	replicate bool
}

func (a clusterArm) armName() string { return a.name }

// clusterOutcome is one arm's result plus its fleet's counters.
type clusterOutcome = outcome[clusterArm, cluster.Stats]

// fleetConfig is the arm's fleet on the given clock. Multi-node arms use
// the seeded random router — the dumb-LB topology the low-and-slow shape
// exploits — so per-node arms and merged arms see the same request spread
// and differ only in replication.
func (a clusterArm) fleetConfig(seed uint64, clock simclock.Clock) cluster.Config {
	ccfg := cluster.Config{
		Nodes:          a.nodes,
		Clock:          clock,
		Gossip:         a.gossip,
		ReplicateRules: a.replicate,
		ReplicateState: a.replicate,
		RuleThreshold:  clustersimRuleThreshold,
		RuleWindow:     clustersimRuleWindow,
		RulePaths:      []string{loadgen.PathHold, loadgen.PathSMS},
	}
	if a.nodes > 1 {
		ccfg.Router = cluster.NewRandomRouter(seed)
	}
	return ccfg
}

// bootClustersimArm serves the arm's fleet behind its routing front and
// reads back the fleet counters.
func bootClustersimArm(run loadRun, clock simclock.Clock, arm clusterArm) (target[cluster.Stats], error) {
	fleet, err := cluster.Start(arm.fleetConfig(run.opts.seed, clock))
	if err != nil {
		return target[cluster.Stats]{}, err
	}
	return target[cluster.Stats]{
		url:   fleet.URL,
		read:  func(*loadgen.Result) cluster.Stats { return fleet.Cluster.Stats() },
		close: func() { _ = fleet.Close() },
	}, nil
}

// clustersimReport renders the per-arm comparison: leak rate vs. gossip
// interval vs. node count.
func clustersimReport(w io.Writer, _ loadRun, outs []clusterOutcome) {
	t := newArmTable("clustersim report", outs)
	t.planHash()
	t.row("nodes", func(o clusterOutcome) string {
		return metrics.FormatInt(int64(o.read.Nodes))
	})
	t.row("gossip interval", func(o clusterOutcome) string {
		if o.arm.gossip <= 0 {
			return "off"
		}
		return o.arm.gossip.String()
	})
	t.completed()
	t.row("gossip rounds", func(o clusterOutcome) string {
		return metrics.FormatInt(int64(o.read.GossipRounds))
	})
	t.row("rules originated", func(o clusterOutcome) string {
		return metrics.FormatInt(int64(o.read.RulesOriginated))
	})
	t.row("rules replicated", func(o clusterOutcome) string {
		return metrics.FormatInt(int64(o.read.RulesReplicated))
	})
	t.row("mean rule propagation", func(o clusterOutcome) string {
		if o.read.RulesReplicated == 0 {
			return "n/a"
		}
		return o.read.MeanPropagation.Round(time.Millisecond).String()
	})
	t.leakRate("attacker leak rate")
	t.honestAdmit()
	fmt.Fprint(w, t.String())
}
