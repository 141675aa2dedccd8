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
	"sync"
	"time"

	"funabuse/internal/core"
	"funabuse/internal/metrics"
	"funabuse/internal/runner"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: fig1, table1, caseA, caseB, caseC, detection, honeypot, economics, biometric, ablations, carrier, pricing, chaos, all")
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

// experimentOrder is the canonical -exp all sequence.
var experimentOrder = []string{
	"fig1", "table1", "caseA", "caseB", "caseC", "detection",
	"honeypot", "economics", "biometric", "ablations", "carrier", "pricing",
	"chaos",
}

// singleRunners renders each experiment's single-seed artefact.
var singleRunners = map[string]func(io.Writer, uint64, bool) error{
	"fig1":      runFig1,
	"table1":    runTable1,
	"caseA":     runCaseA,
	"caseB":     runCaseB,
	"caseC":     runCaseC,
	"detection": runDetection,
	"honeypot":  runHoneypot,
	"economics": runEconomics,
	"biometric": runBiometric,
	"ablations": runAblations,
	"carrier":   runCarrier,
	"pricing":   runPricing,
	"chaos":     runChaos,
}

func run(w io.Writer, exp string, seed uint64, csv bool, replicates, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if exp == "all" {
		return runAll(w, seed, csv, replicates, workers)
	}
	if _, ok := singleRunners[exp]; !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return runOne(w, exp, seed, csv, replicates, workers)
}

// runOne runs a single experiment: the canonical single-seed artefact by
// default, or a replicate summary when replicates > 1.
func runOne(w io.Writer, exp string, seed uint64, csv bool, replicates, workers int) error {
	if replicates <= 1 {
		return singleRunners[exp](w, seed, csv)
	}
	fn, ok := core.ExperimentByID(exp)
	if !ok {
		return fmt.Errorf("experiment %q has no replicate mode", exp)
	}
	sum, err := runner.Run(exp, runner.Config{
		Replicates: replicates,
		Workers:    workers,
		BaseSeed:   seed,
	}, fn)
	if err != nil {
		return err
	}
	emit(w, sum.Table(), csv)
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
	bufs := make([]bytes.Buffer, len(experimentOrder))
	errs := make([]error, len(experimentOrder))

	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, id := range experimentOrder {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = runOne(&bufs[i], id, seed, csv, replicates, workers)
		}(i, id)
	}
	wg.Wait()

	for i, id := range experimentOrder {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", id, errs[i])
		}
		if _, err := bufs[i].WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func emit(w io.Writer, t *metrics.Table, csv bool) {
	if csv {
		fmt.Fprint(w, t.CSV())
		return
	}
	fmt.Fprint(w, t.String())
}

func runFig1(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunFig1(seed)
	if err != nil {
		return err
	}
	emit(w, res.Table(), csv)
	fmt.Fprintf(w, "attacker: final NiP %d after cap, %d holds total\n",
		res.AttackerFinalNiP, res.AttackerHolds)
	return nil
}

func runTable1(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunTable1(seed)
	if err != nil {
		return err
	}
	emit(w, res.Table(), csv)
	fmt.Fprintf(w, "global boarding-pass increase: %+.1f%%; countries targeted: %d; pump volume: %d\n",
		res.GlobalIncreasePct, res.AttackCountries, res.PumpMessages)
	fmt.Fprintf(w, "owner SMS bill for pump traffic: $%.0f; attacker revenue share: $%.0f\n",
		res.AppCostUSD, res.FraudRevenueUSD)
	return nil
}

func runCaseA(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunCaseA(seed)
	if err != nil {
		return err
	}
	emit(w, res.Table(), csv)
	fmt.Fprintf(w, "paper reference: mean rotation 5.3h; attack ceased 2 days before departure\n")
	fmt.Fprintf(w, "measured: mean rotation %v; ceased %v before departure\n",
		res.MeanRotationInterval.Round(time.Minute),
		res.Departure.Sub(res.LastAttackHold).Round(time.Hour))
	return nil
}

func runCaseB(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunCaseB(seed)
	if err != nil {
		return err
	}
	emit(w, res.Table(), csv)
	return nil
}

func runCaseC(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunCaseC(seed)
	if err != nil {
		return err
	}
	emit(w, res.Table(), csv)
	return nil
}

func runDetection(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunDetectionComparison(seed)
	if err != nil {
		return err
	}
	emit(w, res.Table(), csv)
	fmt.Fprintf(w, "sessions: human=%d scraper=%d spinner=%d pumper=%d\n",
		res.HumanSessions, res.ScraperSessions, res.SpinnerSessions, res.PumperSessions)
	return nil
}

func runHoneypot(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunHoneypot(seed)
	if err != nil {
		return err
	}
	emit(w, res.Table(), csv)
	return nil
}

func runBiometric(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunBiometric(seed)
	if err != nil {
		return err
	}
	emit(w, res.Table(), csv)
	return nil
}

func runAblations(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunAblations(seed)
	if err != nil {
		return err
	}
	for _, t := range res.Tables() {
		emit(w, t, csv)
		fmt.Fprintln(w)
	}
	return nil
}

func runCarrier(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunCarrier(seed)
	if err != nil {
		return err
	}
	emit(w, res.Table(), csv)
	return nil
}

func runPricing(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunPricing(seed)
	if err != nil {
		return err
	}
	emit(w, res.Table(), csv)
	return nil
}

func runChaos(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunChaos(seed)
	if err != nil {
		return err
	}
	emit(w, res.Table(), csv)
	fmt.Fprintf(w, "fail-open forfeits the layer's catches while it flaps; fail-closed charges honest traffic instead\n")
	return nil
}

func runEconomics(w io.Writer, seed uint64, csv bool) error {
	res, err := core.RunEconomics(seed)
	if err != nil {
		return err
	}
	emit(w, res.Table(), csv)
	fmt.Fprintf(w, "analytic break-even CAPTCHA solve cost: $%.4f/solve (market prices are ~$0.002)\n",
		res.BreakEvenSolveCostUSD)
	return nil
}
