package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"funabuse/internal/cluster"
	"funabuse/internal/faultinject"
	"funabuse/internal/loadgen"
	"funabuse/internal/metrics"
	"funabuse/internal/resilience"
	"funabuse/internal/simclock"
)

// The partition scenario (E16) replays the distributed low-and-slow plan
// against a 4-node fleet whose gossip travels real loopback sockets
// (HTTPTransport in the FGS1 wire form) through a seeded FaultTransport,
// and measures what a lossy, laggy, partitioned network costs the
// fleet-view defence:
//
//   - a drop-probability sweep: leak rate rises monotonically as gossip
//     drops starve the merged view, and one fetch retry at the same 0.6
//     drop rate recovers most of the failed exchanges (and with them the
//     degraded-response count);
//   - a propagation-delay sweep: stale snapshots delay the threshold
//     crossing in proportion to the injected lag;
//   - a healed-partition timeline: with the fleet split {0,1}|{2,3}
//     during the cut window, neither side's view reaches the threshold —
//     nodes degrade and keep serving on last-known state — and the first
//     post-heal exchange merges the halves and lands the block rule.
//
// Under virtual pacing every arm is bit-deterministic per seed: fault
// draws come from one seeded stream serialized under the transport mutex,
// the anti-entropy loop fetches serially, and link cuts are pure
// functions of the shared manual clock.
var partition = scenario[partitionArm, partitionRead]{
	name: "partition",
	plan: loadgen.LowAndSlowScenario,
	// The arms: the drop sweep (with a retry arm at the same drop rate),
	// the delay sweep, and the healed-partition pair.
	arms: []partitionArm{
		{name: "clean", group: "drop"},
		{name: "drop p=0.3", group: "drop", drop: 0.3},
		{name: "drop p=0.6", group: "drop", drop: 0.6},
		{name: "drop p=0.6 retry", group: "drop", drop: 0.6, retries: 2},
		{name: "drop p=0.9", group: "drop", drop: 0.9},
		{name: "delay 4s", group: "delay", delay: 4 * time.Second},
		{name: "delay 8s", group: "delay", delay: 8 * time.Second},
		{name: "healthy", group: "timeline"},
		{name: "partitioned", group: "timeline", cut: true},
	},
	boot: bootPartitionArm,
	report: func(w io.Writer, _ loadRun, outs []partitionOutcome) {
		fmt.Fprint(w, partitionSweepReport("partition drop sweep", outs, "drop").String())
		fmt.Fprint(w, partitionSweepReport("partition delay sweep", outs, "delay").String())
		fmt.Fprint(w, partitionTimelineReport(outs).String())
	},
}

// Partition-scenario fleet shape. The rule threshold is chosen against
// the low-and-slow plan's arithmetic: the full 4-node fleet view reaches
// ~120 in-window observations per attacking fingerprint at steady state,
// one partitioned half (two fresh nodes plus the other side's decaying
// pre-cut sketches) peaks near 90 — so 100 is only crossable merged.
const (
	partitionNodes         = 4
	partitionGossip        = 2 * time.Second
	partitionRuleThreshold = 100
	partitionRuleWindow    = 20 * time.Second
	partitionBucket        = 5 * time.Second
	partitionCutStart      = 15 * time.Second
	partitionCutLen        = 20 * time.Second
)

// partitionArm is one fault plan the shared plan is replayed against.
type partitionArm struct {
	name    string
	group   string // report section: "drop", "delay", "timeline"
	drop    float64
	delay   time.Duration // served-snapshot minimum age; 0 disables
	retries int           // FetchRetry.Attempts; 0 selects 1 (no retry)
	cut     bool          // partition {0,1}|{2,3} during the cut window
}

func (a partitionArm) armName() string { return a.name }

// bucketTally accumulates one timeline bucket's outcomes.
type bucketTally struct {
	abusiveDone     int
	abusiveAdmitted int
	degraded        int
}

// partitionRead is what one arm reads back from its fleet and fault
// transport after the replay.
type partitionRead struct {
	stats  cluster.Stats
	faults cluster.FaultStats
	// firstRule is the first origination instant relative to plan start;
	// negative when no rule originated.
	firstRule time.Duration
	buckets   []bucketTally
}

// partitionOutcome is one arm's measurements, joined for the report.
type partitionOutcome = outcome[partitionArm, partitionRead]

// bootPartitionArm boots a fresh socket-gossip fleet behind the arm's
// fault plan; the runner replays the shared plan through its routing front
// and close tears everything down.
func bootPartitionArm(run loadRun, clock simclock.Clock, arm partitionArm) (target[partitionRead], error) {
	plan := run.plan
	start := plan.Scenario.Start

	// Gossip rides real loopback sockets: one HTTP transport serves every
	// node's snapshot and fetches each back through its own listener.
	httpTr := cluster.NewHTTPTransport(nil)
	gossipURL, closeGossip, err := httpTr.Serve()
	if err != nil {
		return target[partitionRead]{}, err
	}
	for i := range partitionNodes {
		httpTr.SetPeer(i, gossipURL)
	}

	fcfg := cluster.FaultConfig{
		Seed:     run.opts.seed,
		Clock:    clock,
		DropRate: arm.drop,
	}
	if arm.delay > 0 {
		fcfg.DelayRate = 1
		fcfg.Delay = arm.delay
	}
	if arm.cut {
		fcfg.Links = cluster.PartitionLinks([]int{0, 1}, []int{2, 3},
			faultinject.Schedule{
				Start:  start.Add(partitionCutStart),
				Period: time.Hour,
				Down:   partitionCutLen,
			})
	}
	faultTr := cluster.NewFaultTransport(httpTr, fcfg)

	fleet, err := cluster.Start(cluster.Config{
		Nodes:          partitionNodes,
		Clock:          clock,
		Router:         cluster.NewRandomRouter(run.opts.seed),
		Transport:      faultTr,
		Gossip:         partitionGossip,
		ReplicateRules: true,
		ReplicateState: true,
		FetchRetry:     resilience.RetryConfig{Attempts: max(arm.retries, 1)},
		RuleThreshold:  partitionRuleThreshold,
		RuleWindow:     partitionRuleWindow,
		RulePaths:      []string{loadgen.PathHold, loadgen.PathSMS},
	})
	if err != nil {
		_ = closeGossip()
		return target[partitionRead]{}, err
	}

	// The Observe hook buckets outcomes by arrival time for the timeline:
	// abusive leak and degraded-response stamps per window.
	var mu sync.Mutex
	var buckets []bucketTally
	observe := func(o loadgen.Observation) {
		idx := int(o.Arrival.At.Sub(start) / partitionBucket)
		if idx < 0 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for len(buckets) <= idx {
			buckets = append(buckets, bucketTally{})
		}
		b := &buckets[idx]
		if o.Header.Get(cluster.FleetDegradedHeader) != "" {
			b.degraded++
		}
		if plan.Scenario.Classes[o.Arrival.Class].Kind.Abusive() && o.Status != 0 {
			b.abusiveDone++
			if o.Verdict == "" && o.Status < 400 {
				b.abusiveAdmitted++
			}
		}
	}

	read := func(*loadgen.Result) partitionRead {
		out := partitionRead{
			stats:     fleet.Cluster.Stats(),
			faults:    faultTr.Stats(),
			firstRule: -1,
			buckets:   buckets,
		}
		if rules := fleet.Cluster.Rules(); len(rules) > 0 {
			out.firstRule = rules[0].At.Sub(start)
		}
		return out
	}
	return target[partitionRead]{
		url:     fleet.URL,
		observe: observe,
		read:    read,
		close: func() {
			_ = fleet.Close()
			_ = closeGossip()
		},
	}, nil
}

// partitionSweepReport renders one sweep section: arms of the given group
// as columns, fault/replication/leak measurements as rows.
func partitionSweepReport(title string, outcomes []partitionOutcome, group string) *metrics.Table {
	var cols []partitionOutcome
	for _, o := range outcomes {
		if o.arm.group == group {
			cols = append(cols, o)
		}
	}
	t := newArmTable(title, cols)
	t.planHash()
	t.row("gossip rounds", func(o partitionOutcome) string {
		return metrics.FormatInt(int64(o.read.stats.GossipRounds))
	})
	t.row("fetches faulted", func(o partitionOutcome) string {
		f := o.read.faults
		return metrics.FormatInt(int64(f.Cuts + f.Drops + f.Delays))
	})
	t.row("fetch failures", func(o partitionOutcome) string {
		return metrics.FormatInt(int64(o.read.stats.FetchFailures))
	})
	t.row("degraded responses", func(o partitionOutcome) string {
		return metrics.FormatInt(int64(o.read.stats.DegradedResponses))
	})
	t.row("rules originated", func(o partitionOutcome) string {
		return metrics.FormatInt(int64(o.read.stats.RulesOriginated))
	})
	t.row("rules replicated", func(o partitionOutcome) string {
		return metrics.FormatInt(int64(o.read.stats.RulesReplicated))
	})
	t.row("first rule at", func(o partitionOutcome) string {
		return fmtFirstRule(o.read.firstRule)
	})
	t.leakRate("attacker leak rate")
	t.honestAdmit()
	return t.Table
}

// partitionTimelineReport renders the healed-partition timeline: per
// 5-second window, the abusive leak with and without the cut, plus the
// degraded-response stamps the cut produces. The partitioned fleet leaks
// through the whole cut — both halves keep serving below threshold — and
// converges to the healthy arm's blocked state after the first post-heal
// exchanges.
func partitionTimelineReport(outcomes []partitionOutcome) *metrics.Table {
	var healthy, parted partitionRead
	for _, o := range outcomes {
		switch o.arm.name {
		case "healthy":
			healthy = o.read
		case "partitioned":
			parted = o.read
		}
	}
	t := metrics.NewTable(
		fmt.Sprintf("healed partition timeline (cut +%s..+%s)",
			partitionCutStart, partitionCutStart+partitionCutLen),
		"Window", "healthy leak", "partitioned leak", "partitioned degraded")
	leak := func(b bucketTally) string {
		if b.abusiveDone == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2f", float64(b.abusiveAdmitted)/float64(b.abusiveDone))
	}
	n := max(len(healthy.buckets), len(parted.buckets))
	for i := range n {
		var hb, pb bucketTally
		if i < len(healthy.buckets) {
			hb = healthy.buckets[i]
		}
		if i < len(parted.buckets) {
			pb = parted.buckets[i]
		}
		t.AddRow(
			fmt.Sprintf("+%02ds..+%02ds",
				i*int(partitionBucket/time.Second), (i+1)*int(partitionBucket/time.Second)),
			leak(hb), leak(pb), metrics.FormatInt(int64(pb.degraded)))
	}
	t.AddRow("first rule",
		fmtFirstRule(healthy.firstRule), fmtFirstRule(parted.firstRule), "")
	return t
}

func fmtFirstRule(d time.Duration) string {
	if d < 0 {
		return "never"
	}
	return "+" + d.Round(time.Millisecond).String()
}
