package core

import (
	"reflect"
	"testing"

	"funabuse/internal/runner"
)

// TestExperimentRegistry checks the id table is complete and consistent.
func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 13 {
		t.Fatalf("experiments = %d, want 13", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Run == nil {
			t.Fatalf("%s: nil replicate func", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if fn, ok := ExperimentByID(e.ID); !ok || fn == nil {
			t.Fatalf("ExperimentByID(%q) missing", e.ID)
		}
	}
	if _, ok := ExperimentByID("nonsense"); ok {
		t.Fatal("ExperimentByID accepted unknown id")
	}
}

// TestReplicateMetricNamesStable runs one cheap experiment at two seeds and
// requires identical metric name sequences — the property that lets the
// runner merge samples into per-metric accumulators.
func TestReplicateMetricNamesStable(t *testing.T) {
	names := func(s runner.Sample) []string {
		out := make([]string, len(s))
		for i, m := range s {
			out[i] = m.Name
		}
		return out
	}
	a, err := ReplicateBiometric(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplicateBiometric(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names(a), names(b)) {
		t.Fatalf("metric names vary across seeds:\nseed 1: %v\nseed 2: %v", names(a), names(b))
	}
}

// TestReplicateParallelMatchesSerial is the golden equivalence check of the
// replicate runner: every experiment, run for seeds 1..2 on one worker and
// on two, must produce bit-identical samples and statistics. Any
// nondeterminism an experiment picks up from pool interleaving — shared
// mutable state, map-iteration-order leakage into RNG or scheduling — shows
// up here as a diff. Each experiment is its own parallel subtest, so a
// divergence names its experiment and the single-worker sweeps overlap.
//
// Two seeds suffice: the property is that the seed-order merge does not
// depend on the worker count, and one worker (strictly sequential) against
// two (both replicates in flight at once, finishing in either order) is
// already every interleaving class the pool has. More seeds re-ran the
// same simulations for about half of internal/core's tier-1 time; the
// per-seed outputs themselves are pinned by the golden tests.
func TestReplicateParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full serial-vs-parallel sweep in -short mode")
	}
	cfgSerial := runner.Config{Replicates: 2, Workers: 1, BaseSeed: 1}
	cfgParallel := runner.Config{Replicates: 2, Workers: 2, BaseSeed: 1}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			serial, err := runner.Run(e.ID, cfgSerial, e.Run)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			parallel, err := runner.Run(e.ID, cfgParallel, e.Run)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if !reflect.DeepEqual(serial.Samples, parallel.Samples) {
				t.Error("parallel samples differ from serial")
			}
			if !reflect.DeepEqual(serial.Stats(), parallel.Stats()) {
				t.Error("parallel stats differ from serial")
			}
		})
	}
}
