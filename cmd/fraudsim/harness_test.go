package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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

// TestScenarioGolden runs every row of the load-scenario table under
// virtual pacing at seed 1 with one worker and with four, and requires
// both reports to equal the committed golden byte for byte — determinism
// across reruns and worker counts, and report stability across commits, in
// one table. A row without a golden fails, so a scenario cannot ship
// unpinned. The printed plan hash must be the hash of the scenario's plan.
func TestScenarioGolden(t *testing.T) {
	for _, s := range loadScenarios {
		name := s.scenarioName()
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name+"_seed1.golden")
			var want []byte
			for _, workers := range []int{1, 4} {
				var out bytes.Buffer
				opts := options{scenario: name, days: 1, seed: 1, loadWorkers: workers}
				if err := run(opts, &out, io.Discard); err != nil {
					t.Fatalf("run(%s, %d workers): %v", name, workers, err)
				}
				if want == nil {
					if *update {
						if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					var err error
					if want, err = os.ReadFile(path); err != nil {
						t.Fatalf("scenario %s has no golden (re-pin with -update): %v", name, err)
					}
				}
				if got := out.String(); got != string(want) {
					t.Fatalf("report with %d workers differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
						workers, path, got, want)
				}
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

// mustOutcomes replays a scenario's seed-1 arms through the harness's
// outcomes entry point — what the behavioural tests assert on.
func mustOutcomes[A armConfig, R any](t *testing.T, s scenario[A, R]) (*loadgen.Plan, []outcome[A, R]) {
	t.Helper()
	opts := options{scenario: s.name, seed: 1, loadWorkers: 2}
	run, outs, err := s.outcomes(opts, nil, io.Discard)
	if err != nil {
		t.Fatalf("%s outcomes: %v", s.name, err)
	}
	if len(outs) != len(s.arms) {
		t.Fatalf("%s: got %d outcomes, want %d", s.name, len(outs), len(s.arms))
	}
	return run.plan, outs
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
