package main

import (
	"fmt"
	"io"
	"time"

	"funabuse/internal/entitygraph"
	"funabuse/internal/httpgate"
	"funabuse/internal/loadgen"
	"funabuse/internal/metrics"
	"funabuse/internal/simclock"
)

// The syndicate scenario (experiment E17) replays one coordinated-ring
// plan — a fleet sharing a pool of spoofed fingerprints, proxy exits and
// booking references, every identity pacing itself under the per-identity
// rule threshold — against two defence arms: volume rules alone, then the
// same rules backed by the incremental entity-linkage graph. The headline
// contrast is the leak rate: per-identity volume defences concede the
// attack essentially whole, while the graph collapses the ring's
// co-occurring identities into one flagged component and the gate's
// entity layer shuts all of it down at once.
var syndicate = scenario[syndicateArm, syndicateRead]{
	name: "syndicate",
	plan: loadgen.SyndicateScenario,
	// The arms are the two ends of the E17 comparison.
	arms: []syndicateArm{
		{name: "volume rules"},
		{name: "volume + entity graph", graph: true},
	},
	boot:   bootSyndicateArm,
	report: syndicateReport,
}

// Syndicate defence tuning: the rule threshold sits well above any pooled
// fingerprint's in-window volume (the ring's whole point), and the graph
// flags components that braid at least three identity types across five
// or more nodes with a few seconds of accrued weak signal.
const (
	syndicateRuleThreshold = 80
	syndicateRuleWindow    = 20 * time.Second
	syndicateEntityWeak    = 0.25
)

// syndicateGraphConfig is the entity-graph tuning of the graph arm.
func syndicateGraphConfig() entitygraph.Config {
	return entitygraph.Config{MinSize: 6, MinTypes: 3, FlagScore: 4}
}

// syndicateArm is one defence configuration the plan is replayed against.
type syndicateArm struct {
	name  string
	graph bool
}

func (a syndicateArm) armName() string { return a.name }

// syndicateRead is what one arm reads back: the volume rules its defender
// deployed and, on the graph arm, the entity graph's final shape.
type syndicateRead struct {
	rules []loadgen.Rule
	stats entitygraph.Stats
}

// syndicateOutcome is one arm's measurements, joined for the report.
type syndicateOutcome = outcome[syndicateArm, syndicateRead]

// bootSyndicateArm serves the arm's defended target. Both arms share the
// volume-rule defender; the graph arm adds the entity graph, its request
// feeder and the gate's entity layer on top.
func bootSyndicateArm(_ loadRun, clock simclock.Clock, arm syndicateArm) (target[syndicateRead], error) {
	tcfg := loadgen.TargetConfig{
		Clock:         clock,
		RuleThreshold: syndicateRuleThreshold,
		RuleWindow:    syndicateRuleWindow,
		RulePaths:     []string{loadgen.PathHold, loadgen.PathSMS},
	}
	var graph *entitygraph.Graph
	if arm.graph {
		graph = entitygraph.New(syndicateGraphConfig())
		tcfg.EntityGraph = graph
		tcfg.EntityPaths = []string{loadgen.PathHold, loadgen.PathSMS}
		tcfg.EntityWeak = syndicateEntityWeak
	}
	tgt, err := loadgen.StartTarget(tcfg)
	if err != nil {
		return target[syndicateRead]{}, err
	}
	read := func(*loadgen.Result) syndicateRead {
		out := syndicateRead{rules: tgt.Deployer.Rules()}
		if graph != nil {
			out.stats = graph.Stats()
		}
		return out
	}
	return target[syndicateRead]{url: tgt.URL, read: read, close: func() { _ = tgt.Close() }}, nil
}

// syndicateReport renders the per-arm comparison.
func syndicateReport(w io.Writer, _ loadRun, outs []syndicateOutcome) {
	t := newArmTable("syndicate report", outs)
	// graphCell reads a graph statistic, n/a on the arm that has no graph.
	graphCell := func(stat func(entitygraph.Stats) int) func(syndicateOutcome) string {
		return func(o syndicateOutcome) string {
			if !o.arm.graph {
				return "n/a"
			}
			return metrics.FormatInt(int64(stat(o.read.stats)))
		}
	}
	t.planHash()
	t.completed()
	t.row("volume rules deployed", func(o syndicateOutcome) string {
		return metrics.FormatInt(int64(len(o.read.rules)))
	})
	t.row("entity denials", func(o syndicateOutcome) string {
		var n uint64
		for _, c := range o.result.Classes {
			n += c.Denied[httpgate.ReasonEntity]
		}
		return metrics.FormatInt(int64(n))
	})
	t.row("graph nodes", graphCell(func(s entitygraph.Stats) int { return s.Nodes }))
	t.row("graph components", graphCell(func(s entitygraph.Stats) int { return s.Components }))
	t.row("flagged components", graphCell(func(s entitygraph.Stats) int { return s.FlaggedComponents }))
	t.leakRate("syndicate leak rate")
	t.honestAdmit()
	fmt.Fprint(w, t.String())
}
