package core

import (
	"testing"
)

// Shape assertions for the extension experiments (behavioural biometrics
// and the design-choice ablations).

func TestBiometricShape(t *testing.T) {
	res := atSeed1[BiometricResult](t, "biometric")
	if n := rowCount(t, "biometric", "/reservations"); n != 4 {
		t.Fatalf("%d /reservations rows, want 4 classes", n)
	}
	byClass := map[string]BiometricScore{}
	for _, s := range res.Scores {
		byClass[s.Class] = s
	}
	prog := byClass["programmatic"]
	scripted := byClass["scripted"]
	replay := byClass["replay"]

	// Commodity automation falls to static thresholds.
	if prog.ThresholdRecall < 0.99 {
		t.Fatalf("programmatic threshold recall %v", prog.ThresholdRecall)
	}
	if scripted.ThresholdRecall < 0.95 {
		t.Fatalf("scripted threshold recall %v", scripted.ThresholdRecall)
	}
	// Replay evades static thresholds but not cross-submission
	// correlation.
	if replay.ThresholdRecall > 0.1 {
		t.Fatalf("replay threshold recall %v, replay should evade thresholds", replay.ThresholdRecall)
	}
	if replay.CombinedRecall < 0.7 {
		t.Fatalf("replay combined recall %v", replay.CombinedRecall)
	}
	// The usability price stays small.
	if res.HumanFPRThreshold > 0.02 {
		t.Fatalf("threshold human FPR %v", res.HumanFPRThreshold)
	}
	if res.HumanFPRCombined > 0.06 {
		t.Fatalf("combined human FPR %v", res.HumanFPRCombined)
	}
}

func TestCarrierShape(t *testing.T) {
	res := atSeed1[CarrierResult](t, "carrier")
	if len(res.Arms) != 3 {
		t.Fatalf("arms = %d", len(res.Arms))
	}
	none, validation, withhold := res.Arms[0], res.Arms[1], res.Arms[2]
	if none.AttackerKickbackUSD <= 0 {
		t.Fatal("uncontrolled chain paid no kickback — economics miscalibrated")
	}
	// Colluding terminators short-stop roughly half their traffic, so the
	// blended delivery rate sits well below 1.
	if none.DeliveryRate > 0.9 {
		t.Fatalf("delivery rate %v with colluding terminators in the route", none.DeliveryRate)
	}
	// Validation age freezes young secondaries out entirely: no kickback,
	// full delivery through honest operators, nothing unroutable.
	if validation.AttackerKickbackUSD != 0 {
		t.Fatalf("validation arm paid kickback %v", validation.AttackerKickbackUSD)
	}
	if validation.DeliveryRate < 0.99 {
		t.Fatalf("validation arm delivery rate %v", validation.DeliveryRate)
	}
	if validation.Unroutable != 0 {
		t.Fatalf("validation arm dropped %d messages", validation.Unroutable)
	}
	// Withholding caps the take at the dispute latency.
	if withhold.AttackerKickbackUSD >= none.AttackerKickbackUSD/2 {
		t.Fatalf("withholding left %v of %v kickback", withhold.AttackerKickbackUSD, none.AttackerKickbackUSD)
	}
	if withhold.WithheldUSD <= 0 {
		t.Fatal("nothing withheld")
	}
}

func TestPricingShape(t *testing.T) {
	res := atSeed1[PricingResult](t, "pricing")
	if res.Samples < 100 {
		t.Fatalf("only %d attack-week samples", res.Samples)
	}
	// The quiet week quotes at or near the base fare.
	if res.BaselineMeanFareUSD < 79 || res.BaselineMeanFareUSD > 110 {
		t.Fatalf("baseline mean fare %v", res.BaselineMeanFareUSD)
	}
	// The attack inflates the displayed fare well above real demand.
	if res.DistortionUSD < 20 {
		t.Fatalf("overcharge per quote %v, want pronounced distortion", res.DistortionUSD)
	}
	if res.InflatedShare < 0.7 {
		t.Fatalf("inflated share %v", res.InflatedShare)
	}
	if res.BucketUpgrades == 0 {
		t.Fatal("no fare-class upgrades forced")
	}
	// Sanity: the displayed fare dominates the counterfactual.
	if res.AttackMeanFareUSD <= res.CounterfactualMeanFareUSD {
		t.Fatalf("displayed %v <= counterfactual %v",
			res.AttackMeanFareUSD, res.CounterfactualMeanFareUSD)
	}
}

func TestAblationTTLShape(t *testing.T) {
	res := atSeed1[AblationResult](t, "ablations")
	if len(res.TTL) < 3 {
		t.Fatalf("TTL sweep has %d points", len(res.TTL))
	}
	// Leverage (seat-hours per request) grows monotonically with TTL;
	// total damage stays roughly constant because the attacker re-holds on
	// expiry either way.
	for i := 1; i < len(res.TTL); i++ {
		prev, cur := res.TTL[i-1], res.TTL[i]
		if cur.LeverageSeatHoursPerRequest <= prev.LeverageSeatHoursPerRequest {
			t.Fatalf("leverage not increasing: %v then %v",
				prev.LeverageSeatHoursPerRequest, cur.LeverageSeatHoursPerRequest)
		}
		if cur.AttackerRequests >= prev.AttackerRequests {
			t.Fatalf("request volume not decreasing: %d then %d",
				prev.AttackerRequests, cur.AttackerRequests)
		}
	}
	first, last := res.TTL[0], res.TTL[len(res.TTL)-1]
	ratio := last.SeatHoursLost / first.SeatHoursLost
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("total damage varies %vx across TTLs; should be roughly constant", ratio)
	}

	// Granularity: exact-hash rules die on the first rotation; coarser
	// keys trade survival for legit collisions.
	byRule := map[string]GranularityRow{}
	for _, g := range res.Granularity {
		byRule[g.Rule] = g
	}
	exact := byRule["exact hash (paper practice)"]
	coarse := byRule["browser+os"]
	if exact.RotationsSurvived > 0.01 {
		t.Fatalf("exact-hash rule survived %v rotations", exact.RotationsSurvived)
	}
	if exact.LegitMatchRate > 0.001 {
		t.Fatalf("exact-hash legit collisions %v", exact.LegitMatchRate)
	}
	if coarse.RotationsSurvived < 10 {
		t.Fatalf("browser+os survived only %v rotations of naive rotation", coarse.RotationsSurvived)
	}
	if coarse.LegitMatchRate < 0.005 {
		t.Fatalf("browser+os legit collision rate %v implausibly low", coarse.LegitMatchRate)
	}

	// Gap sweep: no sessionization gap makes the low-volume spinner
	// visible while the scraper stays perfectly visible.
	if len(res.Gaps) < 3 {
		t.Fatalf("gap sweep has %d points", len(res.Gaps))
	}
	for _, row := range res.Gaps {
		if row.SpinnerRecall > 0.05 {
			t.Fatalf("gap %v: spinner recall %v — the keying, not the gap, is the problem",
				row.Gap, row.SpinnerRecall)
		}
		if row.ScraperRecall < 0.9 {
			t.Fatalf("gap %v: scraper recall %v", row.Gap, row.ScraperRecall)
		}
		if row.SpinnerSessions < 50 {
			t.Fatalf("gap %v: only %d spinner sessions", row.Gap, row.SpinnerSessions)
		}
	}
	// Larger gaps merge at most a few sessions, never into flaggable bulk.
	if res.Gaps[len(res.Gaps)-1].SpinnerSessions*2 < res.Gaps[0].SpinnerSessions {
		t.Fatal("large gap merged spinner traffic into sessions — per-request IP rotation should prevent it")
	}
}
