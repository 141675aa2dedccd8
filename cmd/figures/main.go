// Command figures regenerates every table and figure of the paper's
// evaluation from the simulation framework:
//
//	figures -exp fig1       # Fig. 1  — NiP distribution across three weeks
//	figures -exp table1     # Table I — per-country SMS surge
//	figures -exp caseA      # Case A  — fingerprint rotation war statistics
//	figures -exp caseB      # Case B  — automated vs manual Seat Spinning
//	figures -exp caseC      # Case C  — SMS rate-limit key ablation
//	figures -exp detection  # §III    — detector comparison
//	figures -exp honeypot   # §V      — honeypot economics
//	figures -exp economics  # §V      — economic deterrent sweeps
//	figures -exp biometric  # §V      — behavioural-biometric future work
//	figures -exp ablations  # design-choice studies (TTL, rule keys, gaps)
//	figures -exp carrier    # §V      — settlement-chain mitigations
//	figures -exp pricing    # §II-A   — DoI fare-ladder distortion
//	figures -exp chaos      # §V      — defence-layer outages, fail-open vs fail-closed
//	figures -exp all        # everything, in order
//
// Pass -seed to vary the deterministic scenario seed and -csv to emit
// machine-readable output where the experiment produces a table.
//
// Replicate mode runs an experiment across many consecutive seeds on a
// worker pool and reports per-metric mean/std/min/max instead of the
// single-seed table:
//
//	figures -exp fig1 -replicates 16 -workers 8
//	figures -exp all  -replicates 8            # workers defaults to GOMAXPROCS
//
// Single-seed output (-replicates 1, the default) is unchanged. With
// -exp all the experiments fan out concurrently across the worker budget;
// output is buffered per experiment and printed in the canonical order
// above regardless of completion order.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"

	"funabuse/internal/core"
	"funabuse/internal/runner"
)

func main() {
	var ids []string
	for _, e := range core.Experiments() {
		ids = append(ids, e.ID)
	}
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(append(ids, "all"), ", "))
	seed := flag.Uint64("seed", 1, "deterministic scenario seed (base seed in replicate mode)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	replicates := flag.Int("replicates", 1, "seed replicates per experiment; >1 reports mean/std/min/max across seeds")
	workers := flag.Int("workers", 0, "worker-pool size for replicates and -exp all (0 = GOMAXPROCS)")
	flag.Parse()

	if err := run(os.Stdout, *exp, *seed, *csv, *replicates, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, seed uint64, csv bool, replicates, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if exp == "all" {
		return runAll(w, seed, csv, replicates, workers)
	}
	for _, e := range core.Experiments() {
		if e.ID == exp {
			return runOne(w, e, seed, csv, replicates, workers)
		}
	}
	return fmt.Errorf("unknown experiment %q", exp)
}

// runOne runs a single experiment: the canonical single-seed artefact by
// default, or a replicate summary when replicates > 1.
func runOne(w io.Writer, e core.Experiment, seed uint64, csv bool, replicates, workers int) error {
	if replicates <= 1 {
		return e.Report(w, seed, csv)
	}
	sum, err := runner.Run(e.ID, runner.Config{
		Replicates: replicates,
		Workers:    workers,
		BaseSeed:   seed,
	}, e.Run)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprint(w, sum.Table().CSV())
	} else {
		fmt.Fprint(w, sum.Table().String())
	}
	fmt.Fprintf(w, "replicate wall time: mean %.2fs std %.2fs (total %.2fs on %d workers)\n",
		sum.ReplicateSeconds.Mean(), sum.ReplicateSeconds.Std(),
		sum.Elapsed.Seconds(), sum.Workers)
	return nil
}

// runAll fans the canonical experiment list out across the worker budget.
// Each experiment renders into its own buffer; buffers are printed in
// canonical order once every job has finished, so parallel runs emit
// byte-identical output to -workers 1. Replicate pools inside each
// experiment share the same worker budget: total in-flight replicates is
// bounded by workers * experiments-in-flight, which the Go scheduler
// time-shares — determinism never depends on the interleaving.
func runAll(w io.Writer, seed uint64, csv bool, replicates, workers int) error {
	exps := core.Experiments()
	bufs := make([]bytes.Buffer, len(exps))
	errs := make([]error, len(exps))

	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func(i int, e core.Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = runOne(&bufs[i], e, seed, csv, replicates, workers)
		}(i, e)
	}
	wg.Wait()

	for i, e := range exps {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", e.ID, errs[i])
		}
		if _, err := bufs[i].WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
