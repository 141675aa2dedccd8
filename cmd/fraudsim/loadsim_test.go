package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"funabuse/internal/obs"
)

// TestLoadsimTelemetry scrapes a finished loadsim run in-process and
// requires the arm-labelled loadgen families plus the run-identity gauges
// on the shared registry.
func TestLoadsimTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	opts := options{scenario: "loadsim", days: 1, seed: 7, loadWorkers: 2, telemetry: reg}
	if err := run(opts, io.Discard, io.Discard); err != nil {
		t.Fatalf("run(loadsim): %v", err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	samples, err := obs.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("exposition unparseable: %v", err)
	}

	arms := map[string]float64{}
	var seed, scenarioInfo float64
	var scenarioLabel string
	for _, s := range samples {
		switch s.Name {
		case "loadgen_requests_total":
			for _, l := range s.Labels {
				if l.Name == "arm" {
					arms[l.Value] += s.Value
				}
			}
		case "fraudsim_seed":
			seed = s.Value
		case "fraudsim_scenario_info":
			scenarioInfo = s.Value
			for _, l := range s.Labels {
				if l.Name == "scenario" {
					scenarioLabel = l.Value
				}
			}
		}
	}
	if seed != 7 {
		t.Fatalf("fraudsim_seed = %v, want 7", seed)
	}
	if scenarioInfo != 1 || scenarioLabel != "loadsim" {
		t.Fatalf("fraudsim_scenario_info = %v with scenario %q, want 1 with loadsim", scenarioInfo, scenarioLabel)
	}
	if len(arms) != 2 {
		t.Fatalf("arm labels = %v, want both defence arms", arms)
	}
	if arms["blocklist"] <= 0 || arms["blocklist+path-limit"] <= 0 {
		t.Fatalf("arm totals = %v, want both positive", arms)
	}
	if arms["blocklist"] != arms["blocklist+path-limit"] {
		t.Fatalf("arms replayed different request totals: %v", arms)
	}
}
