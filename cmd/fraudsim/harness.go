package main

import (
	"fmt"
	"io"
	"time"

	"funabuse/internal/loadgen"
	"funabuse/internal/metrics"
	"funabuse/internal/obs"
	"funabuse/internal/simclock"
)

// The load scenarios (E14–E18) all make the paper's Section V comparison:
// one seeded plan replayed over sockets against several mitigation
// postures, judged on attacker leak and honest-user cost. This file is the
// one runner they share; a scenario (one row of loadScenarios, one small
// file) supplies only its plan constructor, its arm table, how an arm
// boots its target and what it reads back, and its own report rows.

// loadEpoch anchors virtual-clock runs so the schedule is bit-identical
// per seed. Wall runs re-anchor at time.Now instead.
var loadEpoch = time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)

// loadScenario is a table row with its arm and read-back types erased:
// what run, the flag help and the golden test need of it.
type loadScenario interface {
	scenarioName() string
	buildPlan(opts options) (*loadgen.Plan, error)
	run(opts options, stdout, stderr io.Writer) error
}

// armConfig is one column's configuration; the name heads the column,
// labels the arm's telemetry and keys lookups in reports and tests.
type armConfig interface{ armName() string }

// loadRun is what every arm of one invocation shares: the options and the
// one plan all arms replay.
type loadRun struct {
	opts options
	plan *loadgen.Plan
}

// target is one booted arm. The runner drives url, feeds observe (if set)
// every completed request, calls read once the replay is done and then
// close. read returns whatever the scenario's report needs from the
// target: rules, fleet and fault stats, graph stats, ledgers, buckets.
type target[R any] struct {
	url     string
	observe func(loadgen.Observation)
	read    func(*loadgen.Result) R
	close   func()
}

// outcome is one arm's measurements, joined for the report.
type outcome[A armConfig, R any] struct {
	arm    A
	result *loadgen.Result
	read   R
}

// scenario is one load scenario: A configures an arm, R is what an arm
// reads back from its target after the replay.
type scenario[A armConfig, R any] struct {
	name string
	// plan is the scenario's traffic shape; only seed and start vary.
	plan func(seed uint64, start time.Time) loadgen.Scenario
	arms []A
	// boot starts the arm's defended target or fleet. Everything it builds
	// must tick on clock — the runner's virtual clock, nil under -loadreal
	// (real time) — so rule windows, gossip and fault schedules line up
	// with the replayed schedule exactly.
	boot func(run loadRun, clock simclock.Clock, arm A) (target[R], error)
	// report renders the scenario's tables from the arm outcomes.
	report func(w io.Writer, run loadRun, outs []outcome[A, R])
	// direct, when set, gives the scenario a -loaddirect section: it builds
	// the in-process twin of one of the arms, from the same arm
	// configuration boot serves over a socket.
	direct func(run loadRun, clock simclock.Clock) loadgen.DirectTarget
}

func (s scenario[A, R]) scenarioName() string { return s.name }

// buildPlan expands the scenario's schedule for the run's seed, anchored
// at loadEpoch (virtual pacing) or now (-loadreal).
func (s scenario[A, R]) buildPlan(opts options) (*loadgen.Plan, error) {
	start := loadEpoch
	if opts.loadReal {
		start = time.Now()
	}
	return loadgen.BuildPlan(s.plan(opts.seed, start))
}

// run replays the scenario's plan against every arm and prints the report,
// then the -loaddirect section when asked for. Virtual pacing (the
// default) makes the whole run bit-deterministic per seed; -loadreal paces
// the same plan open-loop in wall time.
func (s scenario[A, R]) run(opts options, stdout, stderr io.Writer) error {
	if opts.loadDirect && s.direct == nil {
		fmt.Fprintf(stderr, "fraudsim: -loaddirect has no section for scenario %s; ignored\n", s.name)
	}
	reg, stop, err := startTelemetry(opts, stderr)
	if err != nil {
		return err
	}
	defer stop()

	run, outs, err := s.outcomes(opts, reg, stderr)
	if err != nil {
		return err
	}
	s.report(stdout, run, outs)
	if opts.loadDirect && s.direct != nil {
		if err := s.directSection(run, stdout); err != nil {
			return fmt.Errorf("direct section: %w", err)
		}
	}
	if opts.stayUp && opts.serve != "" {
		waitForInterrupt(stderr)
	}
	return nil
}

// outcomes builds the plan and replays it against every arm in order. It
// is the single entry point the report and the behavioural tests share.
func (s scenario[A, R]) outcomes(opts options, reg *obs.Registry, stderr io.Writer) (loadRun, []outcome[A, R], error) {
	plan, err := s.buildPlan(opts)
	if err != nil {
		return loadRun{}, nil, err
	}
	run := loadRun{opts: opts, plan: plan}
	outs := make([]outcome[A, R], 0, len(s.arms))
	for _, arm := range s.arms {
		out, err := s.runArm(run, arm, reg, stderr)
		if err != nil {
			return loadRun{}, nil, fmt.Errorf("arm %q: %w", arm.armName(), err)
		}
		outs = append(outs, out)
	}
	return run, outs, nil
}

// runArm boots a fresh target for the arm on a fresh clock, replays the
// shared plan against it, reads the target back and tears it down.
func (s scenario[A, R]) runArm(run loadRun, arm A, reg *obs.Registry, stderr io.Writer) (outcome[A, R], error) {
	var manual *simclock.Manual
	var clock simclock.Clock
	if !run.opts.loadReal {
		manual = simclock.NewManual(run.plan.Scenario.Start)
		clock = manual
	}
	tgt, err := s.boot(run, clock, arm)
	if err != nil {
		return outcome[A, R]{}, err
	}
	defer tgt.close()
	fmt.Fprintf(stderr, "fraudsim: %s arm %q driving %s (%d arrivals)\n",
		s.name, arm.armName(), tgt.url, len(run.plan.Arrivals))

	runner, err := loadgen.NewRunner(loadgen.RunnerConfig{
		Plan:      run.plan,
		BaseURL:   tgt.url,
		Workers:   run.opts.loadWorkers,
		Virtual:   manual,
		Telemetry: reg,
		Arm:       arm.armName(),
		Observe:   tgt.observe,
	})
	if err != nil {
		return outcome[A, R]{}, err
	}
	res, err := runner.Run()
	if err != nil {
		return outcome[A, R]{}, err
	}
	return outcome[A, R]{arm: arm, result: res, read: tgt.read(res)}, nil
}

// armTable renders one column per arm outcome. Every column replays the
// same seeded plan, so differences between columns are the arms'.
type armTable[A armConfig, R any] struct {
	*metrics.Table
	outs []outcome[A, R]
}

func newArmTable[A armConfig, R any](title string, outs []outcome[A, R]) armTable[A, R] {
	headers := append(make([]string, 0, len(outs)+1), "Metric")
	for _, o := range outs {
		headers = append(headers, o.arm.armName())
	}
	return armTable[A, R]{Table: metrics.NewTable(title, headers...), outs: outs}
}

// row adds one labelled row, one cell per arm.
func (t armTable[A, R]) row(label string, cell func(outcome[A, R]) string) {
	cells := append(make([]string, 0, len(t.outs)+1), label)
	for _, o := range t.outs {
		cells = append(cells, cell(o))
	}
	t.AddRow(cells...)
}

// The rows every load report shares. Reports order them differently, so
// each is its own method.

func (t armTable[A, R]) planHash() {
	t.row("plan hash", func(o outcome[A, R]) string {
		return fmt.Sprintf("%016x", o.result.PlanHash)
	})
}

func (t armTable[A, R]) completed() {
	t.row("requests completed", func(o outcome[A, R]) string {
		return metrics.FormatInt(int64(o.result.Completed()))
	})
}

// leakRate is labelled by the caller: the syndicate report names its
// attacker.
func (t armTable[A, R]) leakRate(label string) {
	t.row(label, func(o outcome[A, R]) string {
		return fmtRate(o.result.AbusiveLeakRate())
	})
}

func (t armTable[A, R]) honestAdmit() {
	t.row("honest admit rate", func(o outcome[A, R]) string {
		return fmtRate(o.result.HonestAdmitRate())
	})
}

func fmtRate(rate float64, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", rate)
}
