package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"funabuse/internal/core"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "nonsense", 1, false, 1, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "chaos", 1, false, 1, 1); err != nil {
		t.Fatalf("run(chaos): %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

// inGolden fails t unless render, experiment id's seed-1 CSV render, is a
// section of testdata/all_seed1.golden, the pinned `figures -exp all -seed
// 1 -csv` render. internal/core's TestReportsMatchFiguresGolden checks that
// golden whole, and re-pins it with -update, from the results its test memo
// holds; the tests here cover the plumbing on the cheapest experiments.
func inGolden(t *testing.T, id, render string) {
	t.Helper()
	pinned, err := os.ReadFile(filepath.Join("testdata", "all_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if render == "" || !strings.Contains(string(pinned), render) {
		t.Fatalf("-exp %s -seed 1 -csv is not a section of the golden:\n%s", id, render)
	}
}

// TestRunCSVOutput renders one experiment's CSV artefact through the
// single-experiment path and requires it to appear verbatim in
// testdata/all_seed1.golden, the -exp all render that pins it.
func TestRunCSVOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "caseB", 1, true, 1, 1); err != nil {
		t.Fatalf("run(caseB, csv): %v", err)
	}
	inGolden(t, "caseB", buf.String())
}

// TestReplicateSummaryMode checks the replicate path produces the summary
// header and per-metric stats rather than the single-seed table.
func TestReplicateSummaryMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "chaos", 1, false, 2, 2); err != nil {
		t.Fatalf("run(chaos, replicates=2): %v", err)
	}
	out := buf.String()
	for _, want := range []string{"2 replicates (seeds 1..2)", "Mean", "Std", "replicate wall time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replicate output missing %q:\n%s", want, out)
		}
	}
}

// TestRunAllParallelMatchesSerial fans ablations (~60 ms) and chaos (~3 ms)
// out on two workers, so chaos finishes first, and requires the output to
// be each experiment's serial single-experiment render plus a blank line,
// in list order, and each render to be a section of the golden.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	exps := slices.DeleteFunc(core.Experiments(), func(e core.Experiment) bool {
		return e.ID != "ablations" && e.ID != "chaos"
	})
	var parallel bytes.Buffer
	if err := runAll(&parallel, exps, 1, true, 1, 2); err != nil {
		t.Fatalf("parallel: %v", err)
	}
	want := ""
	for _, e := range exps {
		var serial bytes.Buffer
		if err := runOne(&serial, e, 1, true, 1, 1); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		inGolden(t, e.ID, serial.String())
		want += serial.String() + "\n"
	}
	if got := parallel.String(); got != want {
		t.Fatalf("fan-out on 2 workers differs from the serial renders in list order:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
