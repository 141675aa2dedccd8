package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"funabuse/internal/loadgen"
)

// update re-pins the scenario goldens:
//
//	go test ./cmd/fraudsim -run ScenarioGolden -update
var update = flag.Bool("update", false, "rewrite testdata/<scenario>_seed1.golden from the current output")

// goldenLabels are the report labels each scenario's golden must carry, so
// a re-pin cannot silently drop a headline row or section.
var goldenLabels = map[string][]string{
	"loadsim":    {"rules deployed", "attacker rotations", "attacker leak rate"},
	"clustersim": {"gossip interval", "rules replicated", "attacker leak rate"},
	"partition": {
		"partition drop sweep", "partition delay sweep",
		"healed partition timeline", "degraded responses", "first rule",
	},
	"syndicate": {"flagged components", "syndicate leak rate"},
	"economics": {"attacker ROI", "decoy hits", "accounts burned"},
}

// TestScenarioGolden renders every row of the load-scenario table from its
// memoised seed-1 replay (virtual pacing, four workers) and requires the
// report to equal the committed golden byte for byte — determinism across
// worker counts and report stability across commits, in one table. -update
// re-pins from a one-worker run of the CLI path first, so the pin comes
// from the serial replay. A row without a golden fails, so a scenario
// cannot ship unpinned. The printed plan hash must be the hash of the
// scenario's plan.
func TestScenarioGolden(t *testing.T) {
	for _, s := range loadScenarios {
		name := s.scenarioName()
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name+"_seed1.golden")
			if *update {
				var out bytes.Buffer
				if err := run(options{scenario: name, days: 1, seed: 1, loadWorkers: 1}, &out, io.Discard); err != nil {
					t.Fatalf("run(%s, 1 worker): %v", name, err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("scenario %s has no golden (re-pin with -update): %v", name, err)
			}
			if got := s.(interface{ memoReport(*testing.T) string }).memoReport(t); got != string(want) {
				t.Fatalf("report with 4 workers differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}

			plan, err := s.buildPlan(options{seed: 1})
			if err != nil {
				t.Fatalf("build plan: %v", err)
			}
			labels := append([]string{"plan hash", fmt.Sprintf("%016x", plan.Hash())}, goldenLabels[name]...)
			if len(goldenLabels[name]) == 0 {
				t.Errorf("scenario %s has no goldenLabels entry", name)
			}
			for _, label := range labels {
				if !strings.Contains(string(want), label) {
					t.Errorf("golden missing %q:\n%s", label, want)
				}
			}
		})
	}
}

// replays maps a scenario name to the once-per-binary replay of its seed-1
// arms at four workers, which the golden report and every behavioural test
// read.
var replays sync.Map

type replay[A armConfig, R any] struct {
	run  loadRun
	outs []outcome[A, R]
}

// mustOutcomes returns the scenario's memoised seed-1 replay through the
// harness's outcomes entry point — what the behavioural tests assert on.
func mustOutcomes[A armConfig, R any](t *testing.T, s scenario[A, R]) (loadRun, []outcome[A, R]) {
	t.Helper()
	once, _ := replays.LoadOrStore(s.name, sync.OnceValues(func() (replay[A, R], error) {
		run, outs, err := s.outcomes(options{scenario: s.name, seed: 1, loadWorkers: 4}, nil, io.Discard)
		return replay[A, R]{run, outs}, err
	}))
	r, err := once.(func() (replay[A, R], error))()
	if err != nil {
		t.Fatalf("%s outcomes: %v", s.name, err)
	}
	if len(r.outs) != len(s.arms) {
		t.Fatalf("%s: got %d outcomes, want %d", s.name, len(r.outs), len(s.arms))
	}
	return r.run, r.outs
}

// memoReport renders the scenario's report from its memoised replay.
func (s scenario[A, R]) memoReport(t *testing.T) string {
	run, outs := mustOutcomes(t, s)
	var out bytes.Buffer
	s.report(&out, run, outs)
	return out.String()
}

// requireHonestUntaxed fails unless every completed honest request of the
// arm was admitted: the paper's Section V constraint that mitigation must
// not cost honest users.
func requireHonestUntaxed(t *testing.T, arm string, res *loadgen.Result) {
	t.Helper()
	if rate, ok := res.HonestAdmitRate(); !ok || rate != 1.0 {
		t.Fatalf("arm %q: honest admit rate %v (completed: %v), want 1.0", arm, rate, ok)
	}
}
