// Command bench is the repository's benchmark: five named workloads over
// the gate, the fleet and the paper reproduction, each reporting the
// end-to-end metrics a user of the system would feel and, in a separate
// traced pass, the per-layer metrics that explain them. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one named input set with the reason it exists.
type workload struct {
	name string
	why  string
	// measure is the untraced pass: the end-to-end metrics.
	measure func(seed uint64, seconds float64, gold *golden) (*report, error)
	// trace is the traced pass: a shortened copy of the workload with spans
	// recorded, plus the probes of the layers the workload exercises.
	trace func(seed uint64, seconds float64, outDir string) (*report, error)
}

var workloads = []workload{
	{
		name: "gate_direct",
		why:  "small hot working set replayed in-process through Decide: a Decide-level change shows 1:1, net/http does nothing",
		measure: func(seed uint64, seconds float64, gold *golden) (*report, error) {
			return measureGate("gate_direct", false, seed, seconds, gold)
		},
		trace: func(seed uint64, seconds float64, outDir string) (*report, error) {
			return traceGate("gate_direct", false, seed, seconds, outDir)
		},
	},
	{
		name: "gate_churn",
		why:  "same stack, every arrival a fresh identity under small budgets: inserts and evictions instead of hits",
		measure: func(seed uint64, seconds float64, gold *golden) (*report, error) {
			return measureGate("gate_churn", true, seed, seconds, gold)
		},
		trace: func(seed uint64, seconds float64, outDir string) (*report, error) {
			return traceGate("gate_churn", true, seed, seconds, outDir)
		},
	},
	{
		name:    "gate_socket",
		why:     "closed loop over two keep-alive loopback connections: Wrap, Client, headers and http.Error dominate, Decide is under a tenth",
		measure: measureSocket,
		trace:   traceSocket,
	},
	{
		name:    "fleet_gossip",
		why:     "open loop at a fixed rate against a 4-node fleet: gossip rounds stall requests, so the codecs and merges set the tail",
		measure: measureFleet,
		trace:   traceFleet,
	},
	{
		name:    "paper_repro",
		why:     "E1-E13 through the replicate runner: the simulation substrates, none of the live stack; predicted flat for gate changes",
		measure: measureRepro,
		trace:   traceRepro,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// environment is the noise and provenance stamp of a result file.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds_per_workload"`
	LoadAvg    string  `json:"loadavg_at_start"`
	Started    string  `json:"started"`
	Caveats    string  `json:"caveats"`
}

const sandboxCaveats = "loopback is not a real link; the generator shares the cores with the server; " +
	"timers are about 1 ms coarse, so the open loop fires every arrival due at each wake"

func stampEnvironment(seed uint64, seconds float64) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		LoadAvg:    "unknown",
		Started:    time.Now().UTC().Format(time.RFC3339),
		Caveats:    sandboxCaveats,
	}
	// Outside a git checkout (the acceptance driver's copy) the commit stays
	// unknown; the stamp is provenance, not an input.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		env.LoadAvg = strings.TrimSpace(string(b))
	}
	return env
}

// resultFile is out/result.json.
type resultFile struct {
	Env     environment `json:"environment"`
	Claim   any         `json:"claim"` // always null: defining the benchmark claims no gain
	Reports []*report   `json:"reports"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "run one workload (default: all five)")
		seed      = flag.Uint64("seed", goldenSeed, "workload seed; the program under test only sees generated inputs")
		seconds   = flag.Float64("seconds", runSeconds, "measured seconds per workload")
		traceMode = flag.Int("trace", -1, "0: untraced pass only; 1: traced pass only; default: untraced, and traced too when running all workloads")
		aa        = flag.Bool("aa", false, "run the untraced set twice and compare the two against the bounds")
		record    = flag.Bool("write-golden", false, "regenerate testdata/golden_seed1.json from this run instead of checking against it")
		outDir    = flag.String("out", "out", "directory for result.json, aa.json and trace files")
		describe  = flag.Bool("describe", false, "print BENCHMARK.json as the metric and workload tables define it, and exit")
	)
	flag.Parse()
	if *describe {
		os.Stdout.Write(describeBenchmark())
		return 0
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	untraced := *traceMode != 1
	traced := *traceMode == 1 || (*traceMode == -1 && *name == "")
	if *aa || *record {
		untraced, traced = true, false
	}

	gold, err := loadGolden(*seed, *record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res := resultFile{Env: stampEnvironment(*seed, *seconds)}
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d loadavg=%s\n",
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Commit, *seed, res.Env.LoadAvg)
	fmt.Println("bench: sandbox caveats:", sandboxCaveats)

	pass := func(traced bool) ([]*report, bool) {
		var reports []*report
		ok := true
		for _, w := range selected {
			var rep *report
			var err error
			if traced {
				rep, err = w.trace(*seed, *seconds, *outDir)
			} else {
				rep, err = w.measure(*seed, *seconds, gold)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return reports, false
			}
			rep.print(os.Stdout)
			reports = append(reports, rep)
			ok = ok && rep.ok()
		}
		return reports, ok
	}

	ok := true
	if untraced {
		reports, passed := pass(false)
		res.Reports = append(res.Reports, reports...)
		ok = passed
	}
	if *aa && ok {
		second, passed := pass(false)
		ok = passed && compareAA(res.Env, res.Reports, second, *outDir)
		res.Reports = append(res.Reports, second...)
	}
	if traced && ok {
		reports, passed := pass(true)
		res.Reports = append(res.Reports, reports...)
		ok = passed
	}
	if err := writeJSON(filepath.Join(*outDir, "result.json"), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *record && ok {
		if err := writeJSON(filepath.Join("testdata", "golden_seed1.json"), gold); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println("bench: wrote testdata/golden_seed1.json")
	}
	if n := len(res.Reports); *name != "" && n > 0 {
		// One workload, one pass: the last line of standard output is the
		// machine-readable result.
		printResultLine(res.Reports[n-1])
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED (an output check failed or a pass did not finish)")
		return 1
	}
	return 0
}

// printResultLine prints the single-line JSON result of one pass: every
// gated end-to-end metric for an untraced pass, every per-layer metric for a
// traced one.
func printResultLine(rep *report) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: rep.ok(), Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]mv)}
	for _, d := range contractMetrics(rep.Traced) {
		out.Metrics[d.Name] = mv{Value: rep.Metrics[d.Name].Value, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(b))
}

// contractMetrics lists the metrics BENCHMARK.json promises for a pass:
// end_to_end for the untraced one, per_layer for the traced one.
func contractMetrics(traced bool) []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.Gated != traced {
			out = append(out, d)
		}
	}
	if traced {
		out = append(out, perLayer...)
	}
	return out
}

// runSeconds is the measured time per run that BENCHMARK.json asks the
// acceptance driver for, and the -seconds default.
const runSeconds = 15

// describeBenchmark renders BENCHMARK.json from the workload and metric
// tables, so the file at the repository root cannot drift from what the
// program prints (a unit test compares the two).
func describeBenchmark() []byte {
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, entry{Name: w.name, Why: w.why})
	}
	for _, d := range contractMetrics(false) {
		doc.EndToEnd = append(doc.EndToEnd, entry{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &d.Bound})
	}
	for _, d := range contractMetrics(true) {
		doc.PerLayer = append(doc.PerLayer, entry{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return append(b, '\n')
}

// repeatSetup runs a workload's set-up eleven times and returns the eleven
// wall times; the benchmark reports the fastest as setup_s, for the reason
// bestIndex gives (over fifteen minutes of repeated gate set-ups on this
// shared host, ten-run medians of the fastest of eleven moved by 13-19%,
// of the median of eleven by 22-27%). discard releases what a set-up built
// (listeners, servers) and is called for all but the last one, which the
// measurement then uses.
func repeatSetup(setup func() error, discard func()) ([]float64, error) {
	const setups = 11
	var times []float64
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setups-1 && discard != nil {
			discard()
		}
	}
	return times, nil
}
