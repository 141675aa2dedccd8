package core

import (
	"reflect"
	"strings"
	"testing"

	"funabuse/internal/resilience"
	"funabuse/internal/runner"
)

func TestRunChaosOutageCosts(t *testing.T) {
	res, err := RunChaos(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 4 {
		t.Fatalf("%d arms, want 4", len(res.Arms))
	}
	for _, a := range res.Arms {
		if a.AbuseEvents == 0 || a.LegitEvents == 0 {
			t.Fatalf("%s/%s: empty workload %+v", a.Workload, a.Policy, a)
		}
		if a.AbuseDeniedHealthy == 0 {
			t.Fatalf("%s/%s: healthy gate catches nothing — outage cost unmeasurable", a.Workload, a.Policy)
		}
		if a.Degraded == 0 || a.BreakerOpens == 0 {
			t.Fatalf("%s/%s: flap never degraded the gate (degraded %d, opens %d)",
				a.Workload, a.Policy, a.Degraded, a.BreakerOpens)
		}
		switch a.Policy {
		case resilience.FailOpen:
			// The acceptance property: skipping a broken limiter re-opens
			// the abuse window, but honest traffic never pays.
			if a.Leaked == 0 {
				t.Fatalf("%s fail-open: no abuse leakage during outage", a.Workload)
			}
			if a.FalseDenials != 0 {
				t.Fatalf("%s fail-open: %d false denials — fail-open must never add denials",
					a.Workload, a.FalseDenials)
			}
		case resilience.FailClosed:
			// The converse: protection holds but honest traffic is denied.
			if a.FalseDenials == 0 {
				t.Fatalf("%s fail-closed: no false denials during outage", a.Workload)
			}
		}
	}
	// The stateless blocklist cannot leak under fail-closed (no window
	// state diverges); the limiter can, because requests skipped during the
	// outage never age into its window.
	for _, a := range res.Arms {
		if a.Workload == "seatspin" && a.Policy == resilience.FailClosed && a.Leaked != 0 {
			t.Fatalf("seatspin fail-closed leaked %d abusive requests", a.Leaked)
		}
	}
}

func TestRunChaosDeterministicPerSeed(t *testing.T) {
	a, err := RunChaos(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// TestReplicateChaosWorkersGolden is the satellite golden check: the chaos
// experiment replicated over seeds 1..4 must render byte-identical
// statistics whether the runner used one worker or four.
func TestReplicateChaosWorkersGolden(t *testing.T) {
	chaos, _ := ExperimentByID("chaos")
	run := func(workers int) *runner.Summary {
		sum, err := runner.Run("chaos", runner.Config{
			Replicates: 4, Workers: workers, BaseSeed: 1,
		}, chaos)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sum
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial.Samples, parallel.Samples) {
		t.Fatal("parallel samples differ from serial")
	}
	// Byte-identical rendered output, minus the title line that names the
	// worker count.
	body := func(s *runner.Summary) string {
		lines := strings.SplitN(s.Table().CSV(), "\n", 2)
		return lines[len(lines)-1]
	}
	if body(serial) != body(parallel) {
		t.Fatalf("rendered stats differ:\nserial:\n%s\nparallel:\n%s", body(serial), body(parallel))
	}
}
