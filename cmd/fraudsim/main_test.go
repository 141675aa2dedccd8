package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"funabuse/internal/core"
	"funabuse/internal/obs"
)

func TestRunUnknownScenario(t *testing.T) {
	err := run(options{scenario: "nonsense", days: 1, seed: 1}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	// The error names every valid scenario so a typo is self-correcting.
	for _, name := range scenarioNames {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list scenario %q", err, name)
		}
	}
}

// TestSimScenarioGolden pins each in-process simulation's seed-1 report
// under the CLI's default flags (seven attack days, no defender) byte for
// byte. -update re-pins them along with the load-scenario goldens:
//
//	go test ./cmd/fraudsim -run 'ScenarioGolden' -update
func TestSimScenarioGolden(t *testing.T) {
	for _, name := range simScenarios {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(options{scenario: name, days: 7, seed: 1}, &out, io.Discard); err != nil {
				t.Fatalf("run(%s): %v", name, err)
			}
			path := filepath.Join("testdata", name+"_seed1.golden")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("scenario %s has no golden (re-pin with -update): %v", name, err)
			}
			if out.String() != string(want) {
				t.Fatalf("report differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out.String(), want)
			}
		})
	}
}

func TestRunManualScenarioDefended(t *testing.T) {
	var out bytes.Buffer
	if err := run(options{scenario: "manual", days: 1, seed: 1, defend: true}, &out, io.Discard); err != nil {
		t.Fatalf("run(manual): %v", err)
	}
	if !strings.Contains(out.String(), "requests processed") {
		t.Fatal("report missing from stdout")
	}
}

func TestRunMixedWithHoneypot(t *testing.T) {
	if err := run(options{scenario: "mixed", days: 1, seed: 2, honeypot: true}, io.Discard, io.Discard); err != nil {
		t.Fatalf("run(mixed honeypot): %v", err)
	}
}

// TestRunClampWarnsOnStderr pins the fix for the silent -days clamp: an
// out-of-range value is still clamped to 1, but the operator is told.
func TestRunClampWarnsOnStderr(t *testing.T) {
	var errBuf bytes.Buffer
	// The unknown scenario aborts before any simulation, keeping the test
	// fast; the clamp warning is emitted first.
	if err := run(options{scenario: "nonsense", days: 0, seed: 1}, io.Discard, &errBuf); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if !strings.Contains(errBuf.String(), "-days 0 is invalid; clamped to 1") {
		t.Fatalf("stderr missing clamp warning: %q", errBuf.String())
	}

	errBuf.Reset()
	if err := run(options{scenario: "nonsense", days: 3, seed: 1}, io.Discard, &errBuf); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if errBuf.String() != "" {
		t.Fatalf("valid -days produced a warning: %q", errBuf.String())
	}
}

// TestMetricsGolden runs the deterministic seed-1 manual scenario and
// requires the /metrics exposition to (a) parse line by line under the
// strict parser and (b) be byte-identical across two scrapes of the
// quiesced run.
func TestMetricsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	err := run(options{scenario: "manual", days: 1, seed: 1, defend: true, telemetry: reg},
		io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	var first, second bytes.Buffer
	if err := reg.WritePrometheus(&first); err != nil {
		t.Fatalf("scrape 1: %v", err)
	}
	if err := reg.WritePrometheus(&second); err != nil {
		t.Fatalf("scrape 2: %v", err)
	}
	if first.String() != second.String() {
		t.Fatalf("scrapes differ:\n--- first ---\n%s\n--- second ---\n%s", first.String(), second.String())
	}

	samples, err := obs.ParseText(strings.NewReader(first.String()))
	if err != nil {
		t.Fatalf("exposition unparseable: %v", err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	if byName["app_requests_total"] <= 0 {
		t.Fatalf("app_requests_total = %v, want > 0", byName["app_requests_total"])
	}
	if byName["app_served_total"] <= 0 {
		t.Fatalf("app_served_total = %v, want > 0", byName["app_served_total"])
	}
	if byName["fraudsim_seed"] != 1 {
		t.Fatalf("fraudsim_seed = %v, want 1", byName["fraudsim_seed"])
	}
	var scenarioLabel string
	for _, s := range samples {
		if s.Name == "fraudsim_scenario_info" {
			for _, l := range s.Labels {
				if l.Name == "scenario" {
					scenarioLabel = l.Value
				}
			}
		}
	}
	if scenarioLabel != "manual" {
		t.Fatalf("fraudsim_scenario_info scenario label = %q, want manual", scenarioLabel)
	}
}

// TestObsSmoke boots the telemetry mux exactly as -serve does and fails
// if /metrics emits a single unparseable line or /healthz is unhealthy.
// `make obs-smoke` runs this test.
func TestObsSmoke(t *testing.T) {
	envCfg := core.DefaultEnvConfig(1)
	env := core.NewEnv(envCfg)
	reg := obs.NewRegistry()
	registerApp(reg, env, options{scenario: "seatspin", days: 1, seed: 1})
	ring := obs.NewTraceRing(8)
	ring.Record(obs.Span{Path: "/booking/hold", Verdict: obs.VerdictAdmit})

	srv := httptest.NewServer(obs.NewMux(obs.ServeConfig{
		Registry: reg,
		Traces:   ring,
		Health:   func() error { return nil },
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics unparseable: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("/metrics empty")
	}

	health, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", health.StatusCode)
	}
}

// TestServeTelemetryBindsEphemeralPort exercises the -serve plumbing:
// bind :0, report the bound address on stderr, serve /metrics live.
func TestServeTelemetryBindsEphemeralPort(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("smoke_total").Inc()
	var errBuf bytes.Buffer
	srv, err := serveTelemetry("127.0.0.1:0", reg, obs.NewTraceRing(4), &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	line := strings.TrimSpace(errBuf.String())
	const prefix = "fraudsim: telemetry listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("stderr = %q, want %q prefix", line, prefix)
	}
	url := strings.TrimPrefix(line, prefix)
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("live /metrics unparseable: %v", err)
	}
	found := false
	for _, s := range samples {
		if s.Name == "smoke_total" && s.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("smoke_total missing from live scrape")
	}
}
