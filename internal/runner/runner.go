// Package runner executes seed replicates of simulation experiments on a
// worker pool.
//
// The paper's artefacts are single-seed point estimates; an industrial
// evaluation wants the same experiment re-run across many seeds with
// variance attached. Every core.Run* experiment is a pure function of its
// seed — each replicate builds its own Env (clock, scheduler, RNG,
// substrates), so replicates share no mutable state and can run on as many
// OS threads as the hardware offers while staying bit-deterministic per
// seed. The runner fans replicates out across GOMAXPROCS workers, then
// merges the per-seed samples in seed order, so the reported statistics
// are identical no matter how many workers ran or how they interleaved.
package runner

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"funabuse/internal/metrics"
	"funabuse/internal/obs"
)

// Metric is one named scalar an experiment reports for a seed.
type Metric struct {
	Name  string
	Value float64
}

// Sample is the ordered metric list one replicate produced.
type Sample []Metric

// Func runs one replicate of an experiment at the given seed and returns
// its scalar metrics. Implementations must be self-contained: every call
// builds its own simulation environment and shares nothing with other
// calls, because the runner invokes Func from multiple goroutines.
type Func func(seed uint64) (Sample, error)

// Config sizes a replicate run.
type Config struct {
	// Replicates is how many seeds to run; 0 or negative means 1.
	Replicates int
	// Workers bounds pool size; 0 or negative means GOMAXPROCS. The pool
	// never exceeds the replicate count.
	Workers int
	// BaseSeed is the first seed; replicate i runs seed BaseSeed+i.
	// 0 means 1 (seed 0 is reserved by convention for "unset").
	BaseSeed uint64
	// Telemetry, when non-nil, receives replicate throughput metrics:
	// runner_replicates_total{experiment,status} and the
	// runner_replicate_seconds{experiment} histogram. Handles are
	// resolved once per Run and updated from the worker goroutines.
	Telemetry *obs.Registry
}

// replicateSecondsBuckets spans the realistic replicate wall-clock range:
// milliseconds for micro-experiments up to minutes for chaos sweeps.
var replicateSecondsBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// runTelemetry holds the per-Run metric handles (nil handles when no
// registry is configured).
type runTelemetry struct {
	ok, errs *obs.Counter
	seconds  *obs.Histogram
}

func newRunTelemetry(reg *obs.Registry, experiment string) runTelemetry {
	if reg == nil {
		return runTelemetry{}
	}
	exp := obs.Label{Name: "experiment", Value: experiment}
	return runTelemetry{
		ok:      reg.Counter("runner_replicates_total", exp, obs.Label{Name: "status", Value: "ok"}),
		errs:    reg.Counter("runner_replicates_total", exp, obs.Label{Name: "status", Value: "err"}),
		seconds: reg.Histogram("runner_replicate_seconds", replicateSecondsBuckets, exp),
	}
}

func (t runTelemetry) record(elapsed time.Duration, err error) {
	if t.seconds == nil {
		return
	}
	t.seconds.Observe(elapsed.Seconds())
	if err != nil {
		t.errs.Inc()
	} else {
		t.ok.Inc()
	}
}

func (c Config) withDefaults() Config {
	if c.Replicates < 1 {
		c.Replicates = 1
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Replicates {
		c.Workers = c.Replicates
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	return c
}

// Stat is one metric's distribution across replicates.
type Stat struct {
	Name string
	Run  metrics.Running
}

// Summary is the merged outcome of a replicate run.
type Summary struct {
	Name       string
	Replicates int
	Workers    int
	BaseSeed   uint64
	// Samples holds each replicate's metrics in seed order.
	Samples []Sample
	// ReplicateSeconds is the wall-clock distribution of individual
	// replicates, folded in seed order (the one statistic that
	// legitimately varies run to run).
	ReplicateSeconds metrics.Running
	// Elapsed is the whole run's wall time.
	Elapsed time.Duration
}

// Run executes fn for cfg.Replicates consecutive seeds on a worker pool
// and merges the results. The first error (by seed order) aborts the
// summary; replicates already in flight still finish.
func Run(name string, cfg Config, fn Func) (*Summary, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	samples := make([]Sample, cfg.Replicates)
	errs := make([]error, cfg.Replicates)
	wall := make([]float64, cfg.Replicates)
	tel := newRunTelemetry(cfg.Telemetry, name)

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				t0 := time.Now()
				samples[i], errs[i] = fn(cfg.BaseSeed + uint64(i))
				elapsed := time.Since(t0)
				wall[i] = elapsed.Seconds()
				tel.record(elapsed, errs[i])
			}
		}()
	}
	for i := 0; i < cfg.Replicates; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: %s seed %d: %w", name, cfg.BaseSeed+uint64(i), err)
		}
	}

	compact(samples)
	sum := &Summary{
		Name:       name,
		Replicates: cfg.Replicates,
		Workers:    cfg.Workers,
		BaseSeed:   cfg.BaseSeed,
		Samples:    samples,
		Elapsed:    time.Since(start),
	}
	for _, s := range wall {
		sum.ReplicateSeconds.Observe(s)
	}
	return sum, nil
}

// compact trims what a Summary keeps alive, since sweep drivers hold
// summaries long after the run: every sample is copied to its exact length
// (experiments build them by append) and later replicates share the first
// replicate's metric-name strings instead of holding equal copies.
func compact(samples []Sample) {
	names := make(map[string]string, len(samples[0]))
	for i, s := range samples {
		s = slices.Clone(s)
		for j := range s {
			if shared, ok := names[s[j].Name]; ok {
				s[j].Name = shared
			} else {
				names[s[j].Name] = s[j].Name
			}
		}
		samples[i] = s
	}
}

// Stats derives per-metric mean/std/min/max from Samples, metrics ordered
// as the first replicate declared them. The fold runs in seed order, so
// the values are bit-identical across worker counts. A Summary keeps only
// the samples alive — sweep drivers hold summaries long after the run.
func (s *Summary) Stats() []Stat {
	index := make(map[string]int, len(s.Samples[0]))
	stats := make([]Stat, 0, len(s.Samples[0]))
	for _, s := range s.Samples {
		for _, m := range s {
			i, ok := index[m.Name]
			if !ok {
				i = len(stats)
				index[m.Name] = i
				stats = append(stats, Stat{Name: m.Name})
			}
			stats[i].Run.Observe(m.Value)
		}
	}
	return stats
}

// Table renders the per-metric distribution as mean/std/min/max.
func (s *Summary) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("%s — %d replicates (seeds %d..%d), %d workers",
			s.Name, s.Replicates, s.BaseSeed, s.BaseSeed+uint64(s.Replicates)-1, s.Workers),
		"Metric", "Mean", "Std", "Min", "Max")
	for _, st := range s.Stats() {
		t.AddRow(st.Name,
			formatStat(st.Run.Mean()),
			formatStat(st.Run.Std()),
			formatStat(st.Run.Min()),
			formatStat(st.Run.Max()))
	}
	return t
}

// formatStat renders a stat cell compactly: integers without a mantissa,
// everything else with six significant digits.
func formatStat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
