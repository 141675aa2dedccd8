package main

import (
	"fmt"
	"io"
	"time"

	"funabuse/internal/loadgen"
	"funabuse/internal/metrics"
	"funabuse/internal/simclock"
)

// The loadsim scenario drives the httpgate middleware over real sockets
// with mixed traffic: honest background browsing, a Case A seat-spinning
// burst against the booking-hold path, and a Table I SMS-pumping fan-out
// against the boarding-pass path. Abusive clients adapt: a blocklist
// denial schedules a fingerprint rotation after a reaction delay, so each
// defence arm measures the rule→rotation arms race it induces.
var loadsim = scenario[loadsimArm, []loadgen.Rule]{
	name:   "loadsim",
	plan:   loadsimScenario,
	arms:   []loadsimArm{{name: "blocklist"}, loadsimPathLimitArm},
	boot:   bootLoadsimArm,
	report: loadsimReport,
}

// loadsimScenario is the fixed scenario shape; only the seed and start
// vary. Roughly a minute of traffic, compressed so second-scale reaction
// delays play out several rotation rounds.
func loadsimScenario(seed uint64, start time.Time) loadgen.Scenario {
	return loadgen.Scenario{
		Seed:  seed,
		Start: start,
		Classes: []loadgen.Class{
			{
				Name:    "honest",
				Kind:    loadgen.Honest,
				Clients: 12,
				Paths:   []string{loadgen.PathSearch, loadgen.PathHold, loadgen.PathSMS},
				Phases:  []loadgen.Phase{{Dur: 60 * time.Second, Rate: 4}},
			},
			{
				Name:         "seatspin",
				Kind:         loadgen.SeatSpin,
				Clients:      3,
				Paths:        []string{loadgen.PathHold},
				ReactionMean: 6 * time.Second,
				Phases: []loadgen.Phase{
					{Dur: 10 * time.Second, Rate: 0},
					{Dur: 50 * time.Second, Rate: 10},
				},
			},
			{
				Name:         "smspump",
				Kind:         loadgen.SMSPump,
				Clients:      3,
				Paths:        []string{loadgen.PathSMS},
				Resources:    80,
				ReactionMean: 6 * time.Second,
				Phases: []loadgen.Phase{
					{Dur: 15 * time.Second, Rate: 0},
					{Dur: 45 * time.Second, Rate: 12},
				},
			},
		},
	}
}

// loadsimArm is one defence configuration the plan is replayed against.
type loadsimArm struct {
	name      string
	pathLimit bool
}

func (a loadsimArm) armName() string { return a.name }

// loadsimOutcome is one arm's result plus the rules its defender deployed.
type loadsimOutcome = outcome[loadsimArm, []loadgen.Rule]

// The arms are the two ends of the paper's comparison: reactive
// fingerprint rules alone, then the same rules backed by per-path and
// per-booking-reference rate limits that cap what rotation can recover.
var loadsimPathLimitArm = loadsimArm{name: "blocklist+path-limit", pathLimit: true}

// targetConfig is the arm's defended target on the given clock. The gate
// and its rule-deploying defender share the runner's clock, so in virtual
// mode rule windows and reaction delays line up with the schedule exactly.
func (a loadsimArm) targetConfig(clock simclock.Clock) loadgen.TargetConfig {
	tcfg := loadgen.TargetConfig{
		Clock:         clock,
		RuleThreshold: 40,
		RuleWindow:    30 * time.Second,
		RulePaths:     []string{loadgen.PathHold, loadgen.PathSMS},
	}
	if a.pathLimit {
		tcfg.PathLimit = 300
		tcfg.PathWindow = time.Minute
		tcfg.ResourceLimit = 6
		tcfg.ResourceWindow = time.Hour
	}
	return tcfg
}

// bootLoadsimArm serves the arm's target and reads back the rules its
// defender deployed.
func bootLoadsimArm(_ loadRun, clock simclock.Clock, arm loadsimArm) (target[[]loadgen.Rule], error) {
	tgt, err := loadgen.StartTarget(arm.targetConfig(clock))
	if err != nil {
		return target[[]loadgen.Rule]{}, err
	}
	return target[[]loadgen.Rule]{
		url:   tgt.URL,
		read:  func(*loadgen.Result) []loadgen.Rule { return tgt.Deployer.Rules() },
		close: func() { _ = tgt.Close() },
	}, nil
}

// loadsimReport renders the per-arm comparison. -loadreal adds the
// intended-start latency row, which only wall pacing makes meaningful.
func loadsimReport(w io.Writer, run loadRun, outs []loadsimOutcome) {
	t := newArmTable("loadsim report", outs)
	t.planHash()
	t.completed()
	t.row("rules deployed", func(o loadsimOutcome) string {
		return metrics.FormatInt(int64(len(o.read)))
	})
	t.row("attacker rotations", func(o loadsimOutcome) string {
		return metrics.FormatInt(int64(len(o.result.Rotations())))
	})
	t.row("mean time-to-rotation", func(o loadsimOutcome) string {
		mean, ok := loadgen.MeanTimeToRotation(o.result.Rotations(), o.read)
		if !ok {
			return "n/a"
		}
		return mean.Round(time.Millisecond).String()
	})
	t.leakRate("attacker leak rate")
	t.honestAdmit()
	t.row("degraded responses", func(o loadsimOutcome) string {
		var n uint64
		for _, c := range o.result.Classes {
			n += c.DegradedSeen
		}
		return metrics.FormatInt(int64(n))
	})
	if run.opts.loadReal {
		t.row("mean intended-start latency", func(o loadsimOutcome) string {
			var sum time.Duration
			var classes int
			for _, c := range o.result.Classes {
				if c.Completed() == 0 {
					continue
				}
				sum += c.MeanLatency
				classes++
			}
			if classes == 0 {
				return "n/a"
			}
			return (sum / time.Duration(classes)).Round(time.Millisecond).String()
		})
	}
	fmt.Fprint(w, t.String())
}
