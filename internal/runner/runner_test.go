package runner

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"funabuse/internal/obs"
)

// synthetic replicate: a deterministic function of the seed with two
// metrics, plus a concurrency probe.
func synthFunc(active *int32, maxActive *int32, mu *sync.Mutex) Func {
	return func(seed uint64) (Sample, error) {
		if mu != nil {
			mu.Lock()
			*active++
			if *active > *maxActive {
				*maxActive = *active
			}
			mu.Unlock()
			defer func() {
				mu.Lock()
				*active--
				mu.Unlock()
			}()
		}
		return Sample{
			{Name: "seed", Value: float64(seed)},
			{Name: "seed_sq", Value: float64(seed * seed)},
		}, nil
	}
}

func TestRunMergesInSeedOrder(t *testing.T) {
	sum, err := Run("synth", Config{Replicates: 8, Workers: 4, BaseSeed: 3}, synthFunc(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Samples) != 8 {
		t.Fatalf("samples = %d, want 8", len(sum.Samples))
	}
	for i, s := range sum.Samples {
		if want := float64(3 + i); s[0].Value != want {
			t.Fatalf("sample %d seed metric = %v, want %v", i, s[0].Value, want)
		}
	}
	stats := sum.Stats()
	if stats[0].Name != "seed" || stats[1].Name != "seed_sq" {
		t.Fatalf("stat order %q,%q", stats[0].Name, stats[1].Name)
	}
	// seeds 3..10: mean 6.5, min 3, max 10.
	if got := stats[0].Run.Mean(); got != 6.5 {
		t.Fatalf("mean = %v, want 6.5", got)
	}
	if stats[0].Run.Min() != 3 || stats[0].Run.Max() != 10 {
		t.Fatalf("min/max = %v/%v", stats[0].Run.Min(), stats[0].Run.Max())
	}
	if sum.ReplicateSeconds.N() != 8 {
		t.Fatalf("wall samples = %d, want 8", sum.ReplicateSeconds.N())
	}
}

// TestRunDeterministicAcrossWorkerCounts is the pool-shape invariance
// check at the runner level: every summary field that matters is
// bit-identical for 1, 2, 3 and 8 workers.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	ref, err := Run("synth", Config{Replicates: 8, Workers: 1}, synthFunc(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := Run("synth", Config{Replicates: 8, Workers: workers}, synthFunc(nil, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Samples, ref.Samples) {
			t.Fatalf("workers=%d: samples differ from serial", workers)
		}
		if !reflect.DeepEqual(got.Stats(), ref.Stats()) {
			t.Fatalf("workers=%d: stats differ from serial", workers)
		}
	}
}

func TestRunPoolBoundsConcurrency(t *testing.T) {
	var mu sync.Mutex
	var active, maxActive int32
	if _, err := Run("synth", Config{Replicates: 32, Workers: 4}, synthFunc(&active, &maxActive, &mu)); err != nil {
		t.Fatal(err)
	}
	if maxActive > 4 {
		t.Fatalf("max concurrent replicates = %d, want <= 4", maxActive)
	}
}

func TestRunErrorReportsFirstFailingSeed(t *testing.T) {
	boom := errors.New("boom")
	fn := func(seed uint64) (Sample, error) {
		if seed == 5 || seed == 7 {
			return nil, fmt.Errorf("seed %d: %w", seed, boom)
		}
		return Sample{{Name: "seed", Value: float64(seed)}}, nil
	}
	_, err := Run("synth", Config{Replicates: 8, Workers: 8, BaseSeed: 1}, fn)
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost: %v", err)
	}
	// Deterministic: always the lowest failing seed regardless of pool
	// interleaving.
	if want := "runner: synth seed 5:"; len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Fatalf("error = %q, want prefix %q", err, want)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Replicates != 1 || c.Workers != 1 || c.BaseSeed != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	c = Config{Replicates: 4, Workers: 16}.withDefaults()
	if c.Workers != 4 {
		t.Fatalf("workers not clamped to replicates: %d", c.Workers)
	}
}

func TestRunTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	fn := func(seed uint64) (Sample, error) {
		return Sample{{Name: "seed", Value: float64(seed)}}, nil
	}
	if _, err := Run("telemetry", Config{Replicates: 6, Workers: 3, Telemetry: reg}, fn); err != nil {
		t.Fatal(err)
	}
	byID := map[string]float64{}
	for _, s := range reg.Gather() {
		id := s.Name
		for _, l := range s.Labels {
			id += "|" + l.Name + "=" + l.Value
		}
		byID[id] = s.Value
	}
	if got := byID["runner_replicates_total|experiment=telemetry|status=ok"]; got != 6 {
		t.Fatalf("ok replicates = %v, want 6", got)
	}
	if got := byID["runner_replicates_total|experiment=telemetry|status=err"]; got != 0 {
		t.Fatalf("err replicates = %v, want 0", got)
	}
	if got := byID["runner_replicate_seconds_count|experiment=telemetry"]; got != 6 {
		t.Fatalf("replicate seconds count = %v, want 6", got)
	}
}

func TestRunTelemetryCountsErrors(t *testing.T) {
	reg := obs.NewRegistry()
	fn := func(seed uint64) (Sample, error) {
		if seed == 2 {
			return nil, errors.New("boom")
		}
		return Sample{{Name: "seed", Value: float64(seed)}}, nil
	}
	_, err := Run("telemetry_err", Config{Replicates: 3, Workers: 1, Telemetry: reg}, fn)
	if err == nil {
		t.Fatal("expected error")
	}
	errs := reg.Counter("runner_replicates_total",
		obs.Label{Name: "experiment", Value: "telemetry_err"},
		obs.Label{Name: "status", Value: "err"})
	if errs.Value() != 1 {
		t.Fatalf("err counter = %d, want 1", errs.Value())
	}
}
