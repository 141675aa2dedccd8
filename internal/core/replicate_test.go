package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"funabuse/internal/runner"
)

// memoRun is one experiment at seeds 1 and 2, as the runner produced it.
type memoRun struct {
	results [2]any
	sum     *runner.Summary
}

// memo maps each experiment id to the once-per-binary fill of its memoRun:
// one two-worker runner.Run over seeds 1 and 2, so every result a test
// reads took the concurrent path, whichever test asks first.
var memo = func() map[string]func() (*memoRun, error) {
	fills := map[string]func() (*memoRun, error){}
	for _, e := range Experiments() {
		fills[e.ID] = sync.OnceValues(func() (m *memoRun, err error) {
			m = &memoRun{}
			m.sum, err = runner.Run(e.ID, runner.Config{Replicates: 2, Workers: 2, BaseSeed: 1},
				func(seed uint64) (runner.Sample, error) {
					res, s, err := e.run(seed)
					m.results[seed-1] = res
					return s, err
				})
			return m, err
		})
	}
	return fills
}()

// memoised returns experiment id's result and sample at seed 1 or 2.
func memoised(t *testing.T, id string, seed uint64) (any, runner.Sample) {
	t.Helper()
	m, err := memo[id]()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return m.results[seed-1], m.sum.Samples[seed-1]
}

// atSeed1 is the memoised seed-1 result of experiment id, typed.
func atSeed1[R any](t *testing.T, id string) R {
	t.Helper()
	res, _ := memoised(t, id, 1)
	return res.(R)
}

// rowCount counts the metrics of experiment id's seed-1 sample whose name
// ends in suffix: one per row of the table the metric comes from.
func rowCount(t *testing.T, id, suffix string) int {
	t.Helper()
	_, s := memoised(t, id, 1)
	n := 0
	for _, m := range s {
		if strings.HasSuffix(m.Name, suffix) {
			n++
		}
	}
	return n
}

// TestExperimentRegistry checks the id table is complete and consistent.
func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 13 {
		t.Fatalf("experiments = %d, want 13", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.run == nil {
			t.Fatalf("%s: nil run func", e.ID)
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

// TestReplicateMetricNamesStable requires every experiment to report the
// same metric name sequence at seeds 1 and 2 — the property that lets the
// runner merge samples into per-metric accumulators.
func TestReplicateMetricNamesStable(t *testing.T) {
	sameName := func(a, b runner.Metric) bool { return a.Name == b.Name }
	for _, e := range Experiments() {
		_, a := memoised(t, e.ID, 1)
		_, b := memoised(t, e.ID, 2)
		if !slices.EqualFunc(a, b, sameName) {
			t.Errorf("%s: metric names vary across seeds:\nseed 1: %v\nseed 2: %v", e.ID, a, b)
		}
	}
}

// TestReplicateParallelMatchesSerial is the replicate runner's golden
// equivalence check: each experiment's seed-1 and seed-2 samples, run on two
// workers with both replicates in flight, must fold (bench/golden.go's
// sampleDigest) to the "<id>/<seed>" digest bench/testdata/golden_seed1.json
// pins, the one home of that pin. Nondeterminism an experiment picks up
// from pool interleaving — shared mutable state, map-order leakage into RNG
// or scheduling — shows up as a mismatch. Stats are a seed-order fold of
// the samples, held equal across worker counts by internal/runner's
// TestRunMergesInSeedOrder and TestRunDeterministicAcrossWorkerCounts.
func TestReplicateParallelMatchesSerial(t *testing.T) {
	raw, err := os.ReadFile("../../bench/testdata/golden_seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned struct{ Digests map[string]string }
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 2; seed++ {
				_, s := memoised(t, e.ID, seed)
				h := fnv.New64a()
				for _, m := range s {
					h.Write([]byte(m.Name))
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(m.Value)))
				}
				key := e.ID + "/" + strconv.FormatUint(seed, 10)
				if got := strconv.FormatUint(h.Sum64(), 16); got != pinned.Digests[key] {
					t.Errorf("%s: sample digest %s, pinned %q", key, got, pinned.Digests[key])
				}
			}
		})
	}
}

// figuresGolden pins what `figures -exp all -seed 1 -csv` prints: each
// experiment's report, then a blank line. Re-pin after an intended change:
//
//	go test ./internal/core -run ReportsMatchFiguresGolden -update
const figuresGolden = "../../cmd/figures/testdata/all_seed1.golden"

var update = flag.Bool("update", false, "rewrite "+figuresGolden+" from a serial seed-1 render")

// TestReportsMatchFiguresGolden holds each memoised seed-1 result's CSV
// report to its section of figuresGolden, in canonical order and byte for
// byte. -update re-pins from a serial Experiment.Report render first, so
// the pin comes from the serial path while the check reads the memo.
func TestReportsMatchFiguresGolden(t *testing.T) {
	if *update {
		var serial bytes.Buffer
		for _, e := range Experiments() {
			if err := e.Report(&serial, 1, true); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			serial.WriteByte('\n')
		}
		if err := os.WriteFile(figuresGolden, serial.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		var sec bytes.Buffer
		res, _ := memoised(t, e.ID, 1)
		res.(result).report(&sec, true)
		sec.WriteByte('\n')
		if !bytes.HasPrefix(want, sec.Bytes()) {
			t.Fatalf("%s: seed-1 CSV render differs from %s:\n--- got ---\n%s--- golden from here ---\n%s", e.ID, figuresGolden, sec.Bytes(), want)
		}
		want = want[sec.Len():]
	}
	if len(want) != 0 {
		t.Fatalf("%s goes on past the last experiment:\n%s", figuresGolden, want)
	}
}
