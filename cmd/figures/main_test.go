package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update re-pins the rendered-artefact golden:
//
//	go test ./cmd/figures -run RunAllParallelMatchesSerial -update
var update = flag.Bool("update", false, "rewrite testdata/all_seed1.golden from the current output")

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "nonsense", 1, false, 1, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// The ablation study is the cheapest full experiment.
	var buf bytes.Buffer
	if err := run(&buf, "ablations", 1, false, 1, 1); err != nil {
		t.Fatalf("run(ablations): %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

// TestRunCSVOutput renders one experiment's CSV artefact through the
// single-experiment path and requires it to appear verbatim in
// testdata/all_seed1.golden, the -exp all render that pins it.
func TestRunCSVOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "biometric", 1, true, 1, 1); err != nil {
		t.Fatalf("run(biometric, csv): %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all_seed1.golden"))
	if err != nil {
		t.Fatalf("no golden (re-pin with -update): %v", err)
	}
	if buf.Len() == 0 || !strings.Contains(string(want), buf.String()) {
		t.Fatalf("-exp biometric -seed 1 -csv is not a section of the golden:\n%s", buf.String())
	}
}

// TestReplicateSummaryMode checks the replicate path produces the summary
// header and per-metric stats rather than the single-seed table.
func TestReplicateSummaryMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "ablations", 1, false, 2, 2); err != nil {
		t.Fatalf("run(ablations, replicates=2): %v", err)
	}
	out := buf.String()
	for _, want := range []string{"2 replicates (seeds 1..2)", "Mean", "Std", "replicate wall time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replicate output missing %q:\n%s", want, out)
		}
	}
}

// TestRunAllParallelMatchesSerial renders every experiment's single-seed
// CSV artefact once, on 4 workers, and requires it to equal
// testdata/all_seed1.golden byte for byte: what `figures -exp all -seed 1
// -csv` prints is pinned across commits, and the parallel fan-out must
// print what the serial path pinned. -update re-pins from a 1-worker
// render before the comparison, so the pin always comes from the serial
// path. The golden holds each experiment's CSV output, biometric's
// included.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	path := filepath.Join("testdata", "all_seed1.golden")
	if *update {
		var serial bytes.Buffer
		if err := run(&serial, "all", 1, true, 1, 1); err != nil {
			t.Fatalf("serial all: %v", err)
		}
		if err := os.WriteFile(path, serial.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden (re-pin with -update): %v", err)
	}
	var parallel bytes.Buffer
	if err := run(&parallel, "all", 1, true, 1, 4); err != nil {
		t.Fatalf("parallel all: %v", err)
	}
	if got := parallel.String(); got != string(want) {
		t.Fatalf("-exp all -seed 1 -csv on 4 workers differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
