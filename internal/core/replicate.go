package core

import (
	"fmt"
	"io"

	"funabuse/internal/metrics"
	"funabuse/internal/runner"
)

// This file is the registry of paper experiments. Each row is built from
// one Run* function whose result writes its own single-seed artefact
// (report) and flattens itself into named scalar metrics (sample), so
// cmd/figures, the replicate runner and the benchmark all read the same
// row. Metric names are stable across seeds (they derive from
// configuration-driven labels, never from sampled values), which is what
// lets the runner merge samples into per-metric accumulators.

// Experiment is one paper artefact: its id, its replicate function and
// the renderer of its single-seed table.
type Experiment struct {
	ID  string
	Run runner.Func
	// Report runs the experiment at seed and writes its tables and note
	// lines, as CSV when csv is set.
	Report func(w io.Writer, seed uint64, csv bool) error
}

// result is what every Run* experiment returns.
type result interface {
	report(w io.Writer, csv bool)
	sample() runner.Sample
}

// experiment builds a registry row from an experiment's Run* function.
func experiment[R result](id string, run func(seed uint64) (R, error)) Experiment {
	return Experiment{
		ID: id,
		Run: func(seed uint64) (runner.Sample, error) {
			res, err := run(seed)
			if err != nil {
				return nil, err
			}
			return res.sample(), nil
		},
		Report: func(w io.Writer, seed uint64, csv bool) error {
			res, err := run(seed)
			if err != nil {
				return err
			}
			res.report(w, csv)
			return nil
		},
	}
}

// Experiments returns every paper artefact, in the canonical -exp all
// order.
func Experiments() []Experiment {
	return []Experiment{
		experiment("fig1", RunFig1),
		experiment("table1", RunTable1),
		experiment("caseA", RunCaseA),
		experiment("caseB", RunCaseB),
		experiment("caseC", RunCaseC),
		experiment("detection", RunDetectionComparison),
		experiment("honeypot", RunHoneypot),
		experiment("economics", RunEconomics),
		experiment("biometric", RunBiometric),
		experiment("ablations", RunAblations),
		experiment("carrier", RunCarrier),
		experiment("pricing", RunPricing),
		experiment("chaos", RunChaos),
	}
}

// ExperimentByID returns the replicate function for one experiment id.
func ExperimentByID(id string) (runner.Func, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// emit writes t as an aligned table, or as CSV when csv is set.
func emit(w io.Writer, t *metrics.Table, csv bool) {
	if csv {
		fmt.Fprint(w, t.CSV())
		return
	}
	fmt.Fprint(w, t.String())
}

// sample builds a Sample incrementally with less noise at call sites.
type sample struct{ s runner.Sample }

func (b *sample) add(name string, v float64) { b.s = append(b.s, runner.Metric{Name: name, Value: v}) }
func (b *sample) addInt(name string, v int)  { b.add(name, float64(v)) }

func (b *sample) addBool(name string, v bool) {
	if v {
		b.add(name, 1)
		return
	}
	b.add(name, 0)
}
