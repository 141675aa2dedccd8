package loadgen

import (
	"testing"
	"time"

	"funabuse/internal/simrand"
)

// TestLowAndSlowScenario pins the built-in distributed-abuse shape: the
// kind names itself, the scenario validates and builds deterministically,
// the seed-1 schedule hash is the one the clustersim report prints, and
// the attackers only touch the sensitive paths.
func TestLowAndSlowScenario(t *testing.T) {
	if got := LowAndSlow.String(); got != "lowslow" {
		t.Fatalf("LowAndSlow.String() = %q, want lowslow", got)
	}
	if !LowAndSlow.Abusive() {
		t.Fatal("LowAndSlow must count as abusive")
	}

	p1, err := BuildPlan(LowAndSlowScenario(1, t0))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	p2, err := BuildPlan(LowAndSlowScenario(1, t0))
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if p1.Hash() != p2.Hash() {
		t.Fatalf("same seed, different schedules: %x vs %x", p1.Hash(), p2.Hash())
	}
	p3, err := BuildPlan(LowAndSlowScenario(2, t0))
	if err != nil {
		t.Fatalf("build seed 2: %v", err)
	}
	if p3.Hash() == p1.Hash() {
		t.Fatal("different seeds produced identical schedules")
	}
	if got := p1.Hash(); got != 0xd25a01ac7845e5ad {
		t.Fatalf("seed-1 plan hash = %#x, want 0xd25a01ac7845e5ad", got)
	}

	counts := classCounts(p1)
	if len(counts) != 2 || counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("class counts = %v, want two non-empty classes", counts)
	}
	if total := counts[0] + counts[1]; total != len(p1.Arrivals) {
		t.Fatalf("class counts sum %d != %d arrivals", total, len(p1.Arrivals))
	}
	sensitive := map[string]bool{PathHold: true, PathSMS: true}
	for _, a := range p1.Arrivals {
		if p1.Scenario.Classes[a.Class].Kind == LowAndSlow && !sensitive[a.Path] {
			t.Fatalf("lowslow arrival hits %q, want only the sensitive paths", a.Path)
		}
	}
	// The low-and-slow playbook holds one identity: no reaction delay is
	// configured, so the fleet's bots must never schedule a rotation.
	for _, cl := range newFleet(simrand.New(1), 1, p1.Scenario.Classes[1]) {
		cl.observe(t0, "blocklist", false)
		if _, _, _, rotated := cl.identity(t0.Add(time.Hour)); rotated {
			t.Fatal("lowslow bot rotated despite zero ReactionMean")
		}
	}
}
