package core

import (
	"testing"

	"funabuse/internal/resilience"
)

func TestRunChaosOutageCosts(t *testing.T) {
	res := atSeed1[ChaosResult](t, "chaos")
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
