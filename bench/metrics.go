package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric the benchmark prints. Bound is the share of
// the reference value by which the metric may worsen before it counts as a
// regression; Floor is an absolute difference below which the relative
// comparison is skipped (values that sit near zero). Per-layer metrics
// carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Floor  float64
	// Gated metrics are reported by every workload and are never zero, so
	// they can be listed under end_to_end in BENCHMARK.json. The other
	// end-to-end metrics exist on some workloads only (or sit at zero when
	// all is well) and travel with the per-layer set.
	Gated bool
	Doc   string
}

// endToEnd is the user-visible metric set, in print order.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.2, Gated: true,
		Doc: "plan build + request pre-build + server/fleet start + warm-up; fastest of eleven set-ups"},
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25, Gated: true,
		Doc: "operations completed per wall second (decision / HTTP request / experiment run)"},
	{Name: "batch_ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25,
		Doc: "the same plan through DecideBatch in chunks of 64 (gate_direct, gate_churn)"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25, Gated: true,
		Doc: "process user+sys CPU (getrusage) over the measured region / ops"},
	{Name: "mallocs_per_op", Unit: "count", Better: "lower", Bound: 0.05, Floor: 0.05, Gated: true,
		Doc: "runtime.MemStats.Mallocs delta over the measured region / ops"},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.06, Gated: true,
		Doc: "HeapAlloc after a forced GC at the end of the run, inputs and defence state still referenced"},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Gated: true,
		Doc: "latency of one operation, median (closed loop: call or send to last byte; open loop: from intended start)"},
	// The two tail metrics carry no bound: A/A runs on this shared box
	// differ by 19-37% on them with no code change (README, "Why the timing
	// bounds are 25%"). They are reported, and a claim may name them.
	{Name: "lat_p99_us", Unit: "us", Better: "lower",
		Doc: "latency of one operation, p99 of a round"},
	{Name: "slo_miss_share", Unit: "ratio", Better: "lower",
		Doc: "open loop only: requests whose intended-start latency exceeds 5 ms (failures count) / requests due"},
	{Name: "fail_share", Unit: "ratio", Better: "lower", Floor: 0.0005,
		Doc: "operations whose outcome is wrong / attempted"},
}

// notExercised is the note on a per-layer metric a workload never touches.
const notExercised = "layer not exercised by this workload"

// sloLimitUS is the open-loop latency limit behind slo_miss_share and the
// generator-lateness warning.
const sloLimitUS = 5000

var defsByName = func() map[string]metricDef {
	m := make(map[string]metricDef)
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		if _, dup := m[d.Name]; dup {
			panic("duplicate metric " + d.Name)
		}
		m[d.Name] = d
	}
	return m
}()

// metricValue is one reported number with the noise figures behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many rounds (or repeats) the value is the median of;
	// zero for counts and whole-run aggregates.
	Samples int `json:"samples,omitempty"`
	// Estimator says how the samples became the value: "median" (Spread is
	// then their inter-quartile distance as a share of the median), "best"
	// (Spread is the gap from the best sample to the quartile on its side)
	// or "best per piece"; empty for a whole-run reading.
	Estimator string  `json:"estimator,omitempty"`
	Spread    float64 `json:"spread_share,omitempty"`
	// Unresolved marks a bounded metric whose within-run spread exceeds its
	// bound: a difference of that size cannot be told from noise.
	Unresolved bool   `json:"unresolved,omitempty"`
	Note       string `json:"note,omitempty"`
}

// report is one workload pass (untraced or traced).
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Warnings  []string               `json:"warnings,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newReport(workload string, seed uint64, traced bool) *report {
	return &report{Workload: workload, Seed: seed, Traced: traced, Metrics: make(map[string]metricValue)}
}

// set records a whole-run value.
func (r *report) set(name string, v float64) { r.setNote(name, v, "") }

func (r *report) setNote(name string, v float64, note string) {
	d, ok := defsByName[name]
	if !ok {
		panic("undefined metric " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit, Note: note}
}

// setRounds records the median of per-round samples with their spread.
func (r *report) setRounds(name string, samples []float64) {
	d, ok := defsByName[name]
	if !ok {
		panic("undefined metric " + name)
	}
	mv := metricValue{Value: median(samples), Unit: d.Unit, Samples: len(samples),
		Estimator: "median", Spread: spreadShare(samples)}
	mv.Unresolved = d.Bound > 0 && mv.Spread > d.Bound
	r.Metrics[name] = mv
}

// setPicked records the sample of round at: the round that ran fastest (see
// bestIndex). Spread is then the gap between that sample and the calm
// quartile of all rounds' samples, and a gap wider than the metric's bound
// marks it unresolved: the round stood alone.
func (r *report) setPicked(name string, samples []float64, at int) {
	d, ok := defsByName[name]
	if !ok {
		panic("undefined metric " + name)
	}
	mv := metricValue{Value: samples[at], Unit: d.Unit, Samples: len(samples), Estimator: "best"}
	mv.Spread = calmGap(samples, mv.Value, d.Better == "higher")
	mv.Unresolved = d.Bound > 0 && mv.Spread > d.Bound
	r.Metrics[name] = mv
}

// setBestOf records the best of the samples themselves.
func (r *report) setBestOf(name string, samples []float64) {
	r.setPicked(name, samples, bestIndex(samples, defsByName[name].Better == "higher"))
}

// setAssembled records a value assembled from every piece's fastest round
// (see rounds.best) beside the rounds' raw totals, which give the sample
// count and the within-run spread.
func (r *report) setAssembled(name string, value float64, raw []float64) {
	r.setRounds(name, raw)
	mv := r.Metrics[name]
	mv.Value, mv.Estimator = value, "best per piece"
	r.Metrics[name] = mv
}

// failf records a failed output check; the command exits non-zero when any
// report holds one.
func (r *report) failf(format string, args ...any) {
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// warnf records a doubt about the measurement itself (the box, not the
// program): it is printed and written to result.json, and changes neither
// fail_share nor the exit code.
func (r *report) warnf(format string, args ...any) {
	if len(r.Warnings) < 5 {
		r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
	}
}

// ok reports whether every output check passed.
func (r *report) ok() bool { return r.Failed == 0 && len(r.Failures) == 0 }

// finish derives fail_share once Attempted and Failed are final. A check
// that failed without naming operations still counts as one failed
// operation, so the ratio can never read clean on a failed run.
func (r *report) finish() {
	if len(r.Failures) > 0 && r.Failed == 0 {
		r.Failed = 1
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.set("fail_share", float64(r.Failed)/float64(r.Attempted))
}

// print writes the report's metrics by name with their units, end-to-end
// metrics first in their canonical order, then the rest alphabetically.
func (r *report) print(w io.Writer) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s): %d attempted, %d failed\n", r.Workload, r.Seed, pass, r.Attempted, r.Failed)
	skipped := 0
	line := func(name string) {
		mv, ok := r.Metrics[name]
		if !ok {
			return
		}
		if mv.Note == notExercised {
			skipped++
			return
		}
		fmt.Fprintf(w, "  %-34s %16.4f %-6s", name, mv.Value, mv.Unit)
		if mv.Samples > 0 {
			label := "iqr"
			if mv.Estimator == "best" {
				label = "gap"
			}
			fmt.Fprintf(w, "  %s of n=%-3d %s=%.2f%%", mv.Estimator, mv.Samples, label, 100*mv.Spread)
		}
		if mv.Unresolved {
			fmt.Fprint(w, "  unresolved")
		}
		if mv.Note != "" {
			fmt.Fprintf(w, "  (%s)", mv.Note)
		}
		fmt.Fprintln(w)
	}
	seen := make(map[string]bool)
	for _, d := range endToEnd {
		seen[d.Name] = true
		line(d.Name)
	}
	var rest []string
	for name := range r.Metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		line(name)
	}
	if skipped > 0 {
		fmt.Fprintf(w, "  (%d metrics of layers this workload does not exercise read 0)\n", skipped)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
	for _, f := range r.Warnings {
		fmt.Fprintf(w, "  WARNING: %s\n", f)
	}
}
