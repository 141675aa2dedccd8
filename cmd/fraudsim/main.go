// Command fraudsim runs ad-hoc functional-abuse scenarios against the
// defended application and prints an operational report: attack volume,
// defence actions, inventory damage and SMS billing.
//
//	fraudsim -scenario seatspin -days 7 -defend
//	fraudsim -scenario smspump  -days 7
//	fraudsim -scenario manual   -days 5 -defend
//	fraudsim -scenario mixed    -days 3 -defend -honeypot
//	fraudsim -scenario mixed    -days 3 -defend -serve :9090
//	fraudsim -scenario loadsim  -loadworkers 8
//	fraudsim -scenario clustersim
//	fraudsim -scenario partition
//	fraudsim -scenario syndicate
//	fraudsim -scenario economics
//
// fraudsim -h lists every scenario: the in-process simulations
// (simScenarios) and the rows of the load-scenario table (loadScenarios),
// each documented in the file that defines its row.
//
// The loadsim scenario is different in kind: instead of the in-process
// simulation it boots a real httpgate-backed HTTP server and replays a
// seeded mixed-traffic plan against it over sockets, with adaptive
// attacker clients that rotate fingerprints when blocking rules land.
// It compares defence arms side by side; see internal/loadgen.
//
// The clustersim scenario scales that to a fleet: a distributed
// low-and-slow attack replayed against gate clusters of varying node
// count and gossip interval, measuring the attacker leak rate a per-node
// defence concedes versus one that replicates rules and per-key rate
// windows; see internal/cluster.
//
// The partition scenario moves that fleet's gossip onto real loopback
// sockets and injects faults — drop-probability and propagation-delay
// sweeps plus a healed network partition — to measure how the defence
// degrades and recovers; see internal/cluster's HTTPTransport and
// FaultTransport.
//
// The syndicate scenario replays a coordinated ring that shares a pool
// of spoofed fingerprints, proxy exits and booking references, with every
// identity paced under the per-identity rule threshold. It contrasts
// volume rules alone — which leak the attack essentially whole — against
// the same rules backed by the incremental entity-linkage graph, which
// collapses the ring into one flagged component the gate's entity layer
// then denies wholesale; see internal/entitygraph and internal/loadgen.
//
// The economics scenario replays a budget-constrained seat-spinning
// operation — attackers paying per account registration, per request and
// per burned account — against three arms: no account tiering,
// loyalty-tiered gating (bulk seat-map probing restricted to members,
// per-tier rate allowances), and tiering plus live decoy inventory seeded
// into the attacker's enumeration range. The report tracks the attacker's
// ROI over time under each arm; see internal/account and internal/loadgen.
//
// All scenarios are deterministic per -seed (loadsim under its default
// virtual pacing; -loadreal switches to wall-clock pacing). With -serve
// the process exposes /metrics, /healthz, /debug/traces and /debug/pprof
// while the simulation runs, and stays up after the report until
// interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"funabuse/internal/attack"
	"funabuse/internal/booking"
	"funabuse/internal/core"
	"funabuse/internal/fingerprint"
	"funabuse/internal/metrics"
	"funabuse/internal/obs"
	"funabuse/internal/proxy"
	"funabuse/internal/workload"
)

// options carries everything run needs; flags map onto it 1:1. New knobs
// become fields here rather than positional parameters.
type options struct {
	scenario string
	days     int
	seed     uint64
	defend   bool
	honeypot bool

	// loadWorkers sizes the loadsim worker fleet; loadReal switches it
	// from virtual (deterministic) to wall-clock (open-loop) pacing.
	loadWorkers int
	loadReal    bool

	// serve exposes the telemetry mux on this address ("" disables).
	serve string
	// stayUp blocks after the report until SIGINT/SIGTERM so the serving
	// surface outlives the simulation. main sets it alongside serve; tests
	// leave it false.
	stayUp bool
	// telemetry, when non-nil, receives the run's collectors even without
	// -serve — tests use it to scrape a finished run in-process.
	telemetry *obs.Registry
	// traces, when non-nil, is exposed on /debug/traces.
	traces *obs.TraceRing
}

// simScenarios are the in-process simulations run drives itself.
var simScenarios = []string{"seatspin", "smspump", "manual", "mixed"}

// loadScenarios is the load-scenario table: each row is one socket-replay
// comparison the harness runs (see harness.go). Adding a scenario is one
// row here plus its file and its testdata golden.
var loadScenarios = []loadScenario{loadsim, clustersim, partition, syndicate, economics}

// scenarioNames lists every scenario run accepts, simulations first, then
// the load table in order; the flag help and the unknown-scenario error
// echo it.
var scenarioNames = func() []string {
	names := append([]string(nil), simScenarios...)
	for _, s := range loadScenarios {
		names = append(names, s.scenarioName())
	}
	return names
}()

func main() {
	scenario := flag.String("scenario", "seatspin",
		"scenario: "+strings.Join(scenarioNames, ", "))
	days := flag.Int("days", 7, "attack duration in simulated days")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	defend := flag.Bool("defend", false, "run the adaptive defender")
	honeypot := flag.Bool("honeypot", false, "redirect flagged clients to decoy inventory (implies -defend)")
	serve := flag.String("serve", "", "address for /metrics, /healthz and /debug endpoints (e.g. :9090); stays up after the report")
	loadWorkers := flag.Int("loadworkers", 4, "loadsim worker fleet size")
	loadReal := flag.Bool("loadreal", false, "pace loadsim on the wall clock (open-loop) instead of the deterministic virtual clock")
	flag.Parse()

	opts := options{
		scenario:    *scenario,
		days:        *days,
		seed:        *seed,
		defend:      *defend,
		honeypot:    *honeypot,
		serve:       *serve,
		stayUp:      *serve != "",
		loadWorkers: *loadWorkers,
		loadReal:    *loadReal,
	}
	if err := run(opts, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fraudsim:", err)
		os.Exit(1)
	}
}

// registerApp adds the in-process simulation's collectors to the run's
// registry and documents the app-level families.
func registerApp(reg *obs.Registry, env *core.Env, opts options) {
	reg.Register(env.App.Collector())
	reg.Help("app_requests_total", "Requests entering the defence pipeline.")
	reg.Help("app_blocked_total", "Requests denied by blocklists or fingerprint rules.")
	reg.Help("app_rate_limited_total", "Requests denied by the rate-limit family.")
	reg.Help("app_served_total", "Requests that reached the business feature.")
	reg.Help("app_block_rules", "Live blocklist rules.")
	reg.Gauge("fraudsim_days").Set(float64(opts.days))
}

// serveTelemetry boots the obs mux on addr and reports the bound address
// on stderr (useful with :0). The caller owns shutdown via the returned
// server.
func serveTelemetry(addr string, reg *obs.Registry, ring *obs.TraceRing, stderr io.Writer) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry listen: %w", err)
	}
	mux := obs.NewMux(obs.ServeConfig{
		Registry: reg,
		Traces:   ring,
		Health:   func() error { return nil },
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(stderr, "fraudsim: telemetry listening on http://%s\n", ln.Addr())
	return srv, nil
}

// startTelemetry returns the registry the run reports into — the caller's
// opts.telemetry, a fresh one under -serve, nil when neither asks for
// telemetry — stamped with the run-identity gauges, and exposes it on
// -serve. stop shuts the serving surface down.
func startTelemetry(opts options, stderr io.Writer) (reg *obs.Registry, stop func(), err error) {
	reg, stop = opts.telemetry, func() {}
	if reg == nil && opts.serve == "" {
		return nil, stop, nil
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg.Gauge("fraudsim_seed").Set(float64(opts.seed))
	reg.Gauge("fraudsim_scenario_info",
		obs.Label{Name: "scenario", Value: opts.scenario}).Set(1)
	reg.Help("fraudsim_scenario_info", "Constant 1; the scenario label identifies the run.")
	if opts.serve == "" {
		return reg, stop, nil
	}
	ring := opts.traces
	if ring == nil {
		ring = obs.NewTraceRing(obs.DefaultTraceCapacity)
	}
	srv, err := serveTelemetry(opts.serve, reg, ring, stderr)
	if err != nil {
		return nil, nil, err
	}
	return reg, func() { _ = srv.Close() }, nil
}

func run(opts options, stdout, stderr io.Writer) error {
	if opts.days < 1 {
		fmt.Fprintf(stderr, "fraudsim: -days %d is invalid; clamped to 1\n", opts.days)
		opts.days = 1
	}
	if opts.honeypot {
		opts.defend = true
	}
	for _, s := range loadScenarios {
		if s.scenarioName() == opts.scenario {
			return s.run(opts, stdout, stderr)
		}
	}
	if !slices.Contains(simScenarios, opts.scenario) {
		return fmt.Errorf("unknown scenario %q (valid: %s)",
			opts.scenario, strings.Join(scenarioNames, ", "))
	}
	horizon := time.Duration(opts.days) * 24 * time.Hour
	warmup := 2 * 24 * time.Hour

	envCfg := core.DefaultEnvConfig(opts.seed)
	envCfg.Defence = core.DefenceConfig{
		Blocklists: opts.defend,
		Honeypot:   opts.honeypot,
	}
	if opts.scenario == "smspump" || opts.scenario == "mixed" {
		envCfg.Defence.SMSPathLimit = 700
		envCfg.Defence.SMSPathWindow = 24 * time.Hour
	}
	envCfg.TargetDep = core.SimStart.Add(warmup + horizon + 72*time.Hour)
	env := core.NewEnv(envCfg)

	reg, stop, err := startTelemetry(opts, stderr)
	if err != nil {
		return err
	}
	defer stop()
	if reg != nil {
		registerApp(reg, env, opts)
	}

	wl := workload.DefaultConfig(env.Flights(), core.SimStart.Add(warmup+horizon))
	wl.HoldsPerHour = 60
	pop := workload.NewPopulation(wl, env.App, env.App, env.App, env.Sched, env.RNG.Derive("pop"), env.Registry)
	pop.Start()

	// Warm-up: learn the baseline before the attack.
	if err := env.Run(warmup); err != nil {
		return err
	}

	var defender *core.Defender
	if opts.defend {
		dcfg := core.DefaultDefenderConfig()
		dcfg.RedirectToHoneypot = opts.honeypot
		baseline := env.Bookings.JournalBetween(core.SimStart, core.SimStart.Add(warmup))
		defender = core.NewDefender(dcfg, env.App, env.Sched, baseline)
		defender.Start()
	}

	var spinner *attack.SeatSpinner
	var manual *attack.ManualSpinner
	var pumper *attack.SMSPumper
	until := core.SimStart.Add(warmup + horizon)

	if opts.scenario == "seatspin" || opts.scenario == "mixed" {
		spinner = env.StartSpinner()
	}
	if opts.scenario == "smspump" || opts.scenario == "mixed" {
		// Own labels: SpoofedRotator's "rot"/"fpgen" would replay the spinner's fingerprints.
		rot := fingerprint.NewRotator(env.RNG.Derive("prot"),
			fingerprint.NewGenerator(env.RNG.Derive("pfp")), fingerprint.WithSpoofing())
		pumper = attack.NewSMSPumper(attack.SMSPumperConfig{
			ID:           "pump-1",
			Flight:       envCfg.TargetID,
			Tickets:      4,
			SendInterval: 3 * time.Minute,
			Until:        until,
		}, env.App, env.App, env.Sched, env.RNG.Derive("pumper"), env.Proxies, rot, env.Registry)
		pumper.Start()
	}
	if opts.scenario == "manual" {
		manual = attack.NewManualSpinner(attack.ManualSpinnerConfig{
			ID:        "manc-1",
			Flight:    envCfg.TargetID,
			PartySize: 3,
			MeanGap:   10 * time.Minute,
			TypoRate:  0.1,
			Until:     until,
		}, env.App, env.Sched, env.RNG.Derive("manual"),
			env.Proxies.NewSession("TH", proxy.RotatePerRequest))
		manual.Start()
	}

	if err := env.Run(warmup + horizon); err != nil {
		return err
	}

	report(stdout, env, envCfg, pop, defender, spinner, manual, pumper)

	if opts.stayUp && opts.serve != "" {
		waitForInterrupt(stderr)
	}
	return nil
}

// waitForInterrupt blocks until SIGINT/SIGTERM so the telemetry surface
// outlives the report.
func waitForInterrupt(stderr io.Writer) {
	fmt.Fprintln(stderr, "fraudsim: report complete; telemetry stays up — interrupt to exit")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
}

func report(
	w io.Writer,
	env *core.Env,
	envCfg core.EnvConfig,
	pop *workload.Population,
	defender *core.Defender,
	spinner *attack.SeatSpinner,
	manual *attack.ManualSpinner,
	pumper *attack.SMSPumper,
) {
	t := metrics.NewTable("fraudsim report", "Metric", "Value")
	stats := env.App.Stats()
	t.AddRow("requests processed", metrics.FormatInt(int64(stats.Requests)))
	t.AddRow("requests blocked", metrics.FormatInt(int64(stats.Blocked)))
	t.AddRow("requests rate-limited", metrics.FormatInt(int64(stats.RateLimited)))
	t.AddRow("legitimate holds", metrics.FormatInt(int64(pop.Holds())))
	t.AddRow("legitimate friction", metrics.FormatInt(int64(pop.Friction())))

	if spinner != nil {
		s := spinner.Stats()
		t.AddRow("attacker holds", metrics.FormatInt(int64(s.Holds)))
		t.AddRow("attacker rotations", metrics.FormatInt(int64(len(s.Rotations))))
		if len(s.Rotations) > 0 {
			t.AddRow("mean rotation interval", s.MeanRotationInterval().Round(time.Minute).String())
		}
		var attackRecords []booking.Record
		for _, r := range env.Bookings.Journal() {
			if strings.HasPrefix(r.ActorID, "spin-1") {
				attackRecords = append(attackRecords, r)
			}
		}
		seatHours := booking.SeatHours(attackRecords, envCfg.TargetID, envCfg.Booking.HoldTTL)
		t.AddRow("seat-hours removed from sale", fmt.Sprintf("%.0f", seatHours))
	}
	if manual != nil {
		t.AddRow("manual attacker holds", metrics.FormatInt(int64(manual.Holds())))
		t.AddRow("manual attacker rejects", metrics.FormatInt(int64(manual.Rejects())))
	}
	if pumper != nil {
		t.AddRow("pump messages delivered", metrics.FormatInt(int64(pumper.Sent())))
		t.AddRow("owner SMS bill (pump)", fmt.Sprintf("$%.2f", env.Gateway.CostFor("pump-1")))
		t.AddRow("attacker SMS revenue", fmt.Sprintf("$%.2f", env.Gateway.RevenueFor("pump-1")))
	}
	if defender != nil {
		t.AddRow("defender rules installed", metrics.FormatInt(int64(defender.RulesAdded())))
		t.AddRow("honeypot redirects", metrics.FormatInt(int64(defender.Redirects())))
		if at, ok := defender.CapApplied(); ok {
			t.AddRow("NiP cap applied at", at.Format(time.RFC3339))
		}
	}
	if hp := env.App.Honeypot(); hp != nil {
		t.AddRow("decoy holds absorbed", metrics.FormatInt(int64(hp.DecoyHolds())))
	}
	fmt.Fprint(w, t.String())
}
