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

func TestRunCSVOutput(t *testing.T) {
	if err := run(io.Discard, "biometric", 1, true, 1, 1); err != nil {
		t.Fatalf("run(biometric, csv): %v", err)
	}
}

// TestReplicateSummaryMode checks the replicate path produces the summary
// header and per-metric stats rather than the single-seed table.
func TestReplicateSummaryMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "biometric", 1, false, 2, 2); err != nil {
		t.Fatalf("run(biometric, replicates=2): %v", err)
	}
	out := buf.String()
	for _, want := range []string{"2 replicates (seeds 1..2)", "Mean", "Std", "replicate wall time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replicate output missing %q:\n%s", want, out)
		}
	}
}

// TestRunAllParallelMatchesSerial renders every experiment's single-seed
// CSV artefact with 1 worker and with 4, and requires byte-identical
// buffered output — the cmd-level half of the determinism story. The
// serial rendering must also equal testdata/all_seed1.golden, which pins
// what `figures -exp all -seed 1 -csv` prints across commits.
// It is the long pole of the cmd test suite (every experiment twice).
func TestRunAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full -exp all comparison in -short mode")
	}
	var serial, parallel bytes.Buffer
	if err := run(&serial, "all", 1, true, 1, 1); err != nil {
		t.Fatalf("serial all: %v", err)
	}
	path := filepath.Join("testdata", "all_seed1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, serial.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden (re-pin with -update): %v", err)
	}
	if got := serial.String(); got != string(want) {
		t.Fatalf("-exp all -seed 1 -csv differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
	if err := run(&parallel, "all", 1, true, 1, 4); err != nil {
		t.Fatalf("parallel all: %v", err)
	}
	if serial.String() != parallel.String() {
		t.Fatal("parallel -exp all output differs from serial")
	}
}
