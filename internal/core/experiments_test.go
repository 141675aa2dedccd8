package core

import (
	"testing"
	"time"

	"funabuse/internal/signal"
	"funabuse/internal/sms"
)

// These tests are the repository's headline reproduction assertions: each
// experiment must regenerate the *shape* of the corresponding paper
// artifact. Absolute numbers depend on the synthetic calibration and are
// asserted as bands, per EXPERIMENTS.md.

func TestFig1Shape(t *testing.T) {
	res, err := RunFig1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Weeks) != 3 {
		t.Fatalf("weeks = %d", len(res.Weeks))
	}
	avg, attacked, capped := res.Weeks[0], res.Weeks[1], res.Weeks[2]

	// Average week: dominated by singles and couples, thin group tail.
	if avg.Shares[0] < 0.45 || avg.Shares[0] > 0.60 {
		t.Fatalf("avg week NiP1 share %v", avg.Shares[0])
	}
	if avg.Shares[1] < 0.25 || avg.Shares[1] > 0.35 {
		t.Fatalf("avg week NiP2 share %v", avg.Shares[1])
	}
	if avg.Shares[5] > 0.03 {
		t.Fatalf("avg week NiP6 share %v, want rare", avg.Shares[5])
	}

	// Attack week: sharp NiP6 spike — the figure's middle bar.
	if attacked.Shares[5] < 0.20 {
		t.Fatalf("attack week NiP6 share %v, want pronounced spike", attacked.Shares[5])
	}
	if attacked.Shares[5] < 8*avg.Shares[5] {
		t.Fatalf("attack week NiP6 %v not a sharp increase over baseline %v",
			attacked.Shares[5], avg.Shares[5])
	}

	// Capped week: the spike migrates to the new limit of 4; no parties
	// above the cap exist at all.
	if capped.Shares[3] < 0.20 {
		t.Fatalf("capped week NiP4 share %v, want pronounced rise", capped.Shares[3])
	}
	for b := 4; b < 9; b++ {
		if capped.Shares[b] != 0 {
			t.Fatalf("capped week has NiP %d reservations (share %v)", b+1, capped.Shares[b])
		}
	}
	// The attacker adapted to the cap rather than stopping.
	if res.AttackerFinalNiP != 4 {
		t.Fatalf("attacker final NiP %d, want 4", res.AttackerFinalNiP)
	}
	if res.AttackerHolds < 1000 {
		t.Fatalf("attacker holds %d, attack too weak to shift the figure", res.AttackerHolds)
	}
	// Rendered table has one row per bucket.
	if got := res.Table().Rows(); got != 9 {
		t.Fatalf("table rows %d", got)
	}
}

func TestTable1Shape(t *testing.T) {
	env, _, err := runPumpScenario(1, DefenceConfig{}, table1PumpInterval)
	if err != nil {
		t.Fatal(err)
	}
	res := table1(env)
	if len(res.Top10) != 10 {
		t.Fatalf("top10 has %d rows", len(res.Top10))
	}
	// The six disproportionately-targeted high-cost destinations must be
	// the top six, each with a >=1000% surge (paper: 4,990%-160,209%).
	want := map[string]bool{"UZ": true, "IR": true, "KG": true, "JO": true, "NG": true, "KH": true}
	for i := range 6 {
		s := res.Top10[i]
		if !want[s.Country] {
			t.Fatalf("rank %d is %s, want one of the six pump destinations", i+1, s.Country)
		}
		if s.IncreasePct < 1000 {
			t.Fatalf("%s surge %v%%, want >= 1000%%", s.Country, s.IncreasePct)
		}
	}
	if res.Top10[0].Country != "UZ" {
		t.Fatalf("top surge is %s, want UZ", res.Top10[0].Country)
	}
	// Ordering must be non-increasing.
	for i := 1; i < len(res.Top10); i++ {
		if res.Top10[i-1].IncreasePct < res.Top10[i].IncreasePct {
			t.Fatal("top10 not sorted by surge")
		}
	}
	// Global boarding-pass increase lands near the paper's ~25%.
	if res.GlobalIncreasePct < 15 || res.GlobalIncreasePct > 45 {
		t.Fatalf("global increase %v%%, want ~25%%", res.GlobalIncreasePct)
	}
	// Footprint comparable to the paper's 42 countries.
	if res.AttackCountries < 35 || res.AttackCountries > 56 {
		t.Fatalf("attack countries %d, want ~42", res.AttackCountries)
	}
	// The fraud is profitable for the attacker and costly for the owner.
	if res.FraudRevenueUSD <= 0 || res.AppCostUSD <= res.FraudRevenueUSD {
		t.Fatalf("economics inverted: revenue %v cost %v", res.FraudRevenueUSD, res.AppCostUSD)
	}
	// Golden check: a week-period signal.SurgeDetector consuming the same
	// journal slices one event at a time, the way a live deployment reads
	// gateway events, must reproduce the offline ranking row for row,
	// counts and percentages included.
	before, after := boardingPasses(env)
	det := signal.NewSurgeDetector(SimStart, 7*24*time.Hour)
	for _, m := range append(before, after...) {
		det.Observe(m.Country, m.SentAt)
	}
	streaming := det.Top(10)
	if len(streaming) != len(res.Top10) {
		t.Fatalf("streaming top10 has %d rows, offline %d", len(streaming), len(res.Top10))
	}
	for i, s := range streaming {
		got := sms.Surge{Country: s.Key, Before: s.Before, After: s.After, IncreasePct: s.IncreasePct}
		if got != res.Top10[i] {
			t.Fatalf("row %d diverged: offline %+v streaming %+v", i+1, res.Top10[i], got)
		}
	}
	if g := det.GlobalIncreasePct(); g != res.GlobalIncreasePct {
		t.Fatalf("global increase diverged: offline %v streaming %v", res.GlobalIncreasePct, g)
	}
}

func TestCaseAShape(t *testing.T) {
	res, err := RunCaseA(1)
	if err != nil {
		t.Fatal(err)
	}
	// Mean rotation interval near the paper's 5.3 hours. The sample is a
	// few dozen rotations, so allow a generous band.
	if res.Rotations < 10 {
		t.Fatalf("only %d rotations, war too short to measure", res.Rotations)
	}
	lo, hi := 3*time.Hour+30*time.Minute, 7*time.Hour+30*time.Minute
	if res.MeanRotationInterval < lo || res.MeanRotationInterval > hi {
		t.Fatalf("mean rotation interval %v, want around 5.3h", res.MeanRotationInterval)
	}
	// The defender kept adding rules — and needed many (the paper's
	// whack-a-mole).
	if res.RulesAdded < 20 {
		t.Fatalf("rules added %d, want substantial churn", res.RulesAdded)
	}
	// Mitigation fired and the attacker adapted to the cap.
	if !res.CapApplied {
		t.Fatal("NiP cap never fired")
	}
	if res.AttackerFinalNiP != 4 {
		t.Fatalf("attacker final NiP %d", res.AttackerFinalNiP)
	}
	// Attack ceased close to two days before departure.
	if !res.AttackStopped {
		t.Fatal("attack did not stop")
	}
	gap := res.Departure.Sub(res.LastAttackHold)
	if gap < 47*time.Hour || gap > 56*time.Hour {
		t.Fatalf("attack ceased %v before departure, want ~48h", gap)
	}
	if res.SeatHoursLost <= 0 {
		t.Fatal("no inventory damage recorded")
	}
	// The streaming monitor sees essentially every burned identity: each
	// rotation's fresh print immediately fans out across residential
	// exits. Humans, keyed privately by their cookies, never fire.
	if res.PrintsFlaggedOnline < res.Rotations/2 {
		t.Fatalf("only %d of %d rotated prints flagged online",
			res.PrintsFlaggedOnline, res.Rotations)
	}
	if res.HumansFlaggedOnline != 0 {
		t.Fatalf("%d human identities flagged online", res.HumansFlaggedOnline)
	}
}

func TestCaseBShape(t *testing.T) {
	res, err := RunCaseB(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AutoFlagged {
		t.Fatal("automated structured attacker not caught by name patterns")
	}
	foundRotating := false
	for _, p := range res.AutoPatterns {
		if p == "rotating-birthdate" {
			foundRotating = true
		}
	}
	if !foundRotating {
		t.Fatalf("automated attacker patterns %v missing rotating-birthdate", res.AutoPatterns)
	}
	if !res.ManualFlagged {
		t.Fatal("manual attacker not caught by name patterns")
	}
	foundManual := false
	for _, p := range res.ManualPatterns {
		if p == "name-reuse" || p == "typo-cluster" {
			foundManual = true
		}
	}
	if !foundManual {
		t.Fatalf("manual attacker patterns %v missing reuse/typo signature", res.ManualPatterns)
	}
	// The paper's central claim: bot-detection alerts do not fire.
	if res.VolumeRulesAutoRecall > 0.05 {
		t.Fatalf("volume rules caught the low-volume automated attacker: recall %v", res.VolumeRulesAutoRecall)
	}
	if res.VolumeRulesManualRecall > 0.05 {
		t.Fatalf("volume rules caught the manual attacker: recall %v", res.VolumeRulesManualRecall)
	}
	// Name analysis stays precise on legitimate traffic.
	if res.HumanKeysFlagged > 10 {
		t.Fatalf("%d legitimate keys flagged", res.HumanKeysFlagged)
	}
	// The Section V behavioural direction: the navigation-graph heuristic
	// catches a meaningful share of the manual attacker's sessions —
	// degenerate hold-only loops — that volume rules cannot see.
	if res.GraphManualRecall < 0.4 {
		t.Fatalf("graph rules manual recall %v", res.GraphManualRecall)
	}
}

func TestCaseCShape(t *testing.T) {
	res, err := RunCaseC(1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CaseCVariant{}
	for _, v := range res.Variants {
		byName[v.Name] = v
	}
	none := byName["none (pre-incident)"]
	pathOnly := byName["path limit only (paper posture)"]
	perLocator := byName["per-locator limit"]
	perProfile := byName["per-profile limit"]

	if none.Detected {
		t.Fatal("undefended posture reported detection")
	}
	if none.PumpDelivered < 3000 {
		t.Fatalf("undefended pump delivered %d, want large volume", none.PumpDelivered)
	}
	// The paper's posture: detection only when the path total trips —
	// hours later, after substantial volume.
	if !pathOnly.Detected {
		t.Fatal("path limit never tripped")
	}
	if pathOnly.DetectionDelay < time.Hour {
		t.Fatalf("path limit tripped in %v, expected a late detection", pathOnly.DetectionDelay)
	}
	if pathOnly.PumpDelivered < 500 {
		t.Fatalf("pump delivered %d before path detection, want substantial damage", pathOnly.PumpDelivered)
	}
	// Path limit locks out legitimate users once exhausted (the paper's
	// collateral-damage warning).
	if pathOnly.LegitFriction == 0 {
		t.Fatal("path limit caused no legitimate friction")
	}
	// Keyed limits detect almost immediately and bound the damage.
	for name, v := range map[string]CaseCVariant{"per-locator": perLocator, "per-profile": perProfile} {
		if !v.Detected {
			t.Fatalf("%s limit never fired", name)
		}
		if v.DetectionDelay > time.Hour {
			t.Fatalf("%s detection delay %v, want fast", name, v.DetectionDelay)
		}
		if v.PumpDelivered >= pathOnly.PumpDelivered/4 {
			t.Fatalf("%s allowed %d messages vs path-only %d, want sharp reduction",
				name, v.PumpDelivered, pathOnly.PumpDelivered)
		}
		if v.LegitFriction != 0 {
			t.Fatalf("%s limit hurt %d legitimate requests", name, v.LegitFriction)
		}
	}
}

func TestDetectionComparisonShape(t *testing.T) {
	res, err := RunDetectionComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScraperSessions < 20 || res.SpinnerSessions < 100 || res.PumperSessions < 100 || res.HumanSessions < 500 {
		t.Fatalf("session mix too thin: %+v", res)
	}
	byName := map[string]DetectorScore{}
	for _, s := range res.Scores {
		byName[s.Detector] = s
	}
	for _, name := range []string{"volume rules", "logistic regression", "naive bayes", "fingerprint checks", "volume + fingerprint", "streaming signals", "entity graph"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("missing detector %q", name)
		}
	}
	// Behaviour-based detectors: excellent on scrapers, blind to
	// low-volume abuse, low human FPR.
	for _, name := range []string{"volume rules", "logistic regression", "naive bayes"} {
		s := byName[name]
		if s.ScraperRecall < 0.9 {
			t.Errorf("%s scraper recall %v", name, s.ScraperRecall)
		}
		if s.SpoofedSpinnerRecall > 0.05 || s.PumperRecall > 0.05 {
			t.Errorf("%s caught low-volume abuse: spinner %v pumper %v",
				name, s.SpoofedSpinnerRecall, s.PumperRecall)
		}
		if s.HumanFPR > 0.02 {
			t.Errorf("%s human FPR %v", name, s.HumanFPR)
		}
	}
	// Knowledge-based checks: catch naive automation, miss spoofed.
	fp := byName["fingerprint checks"]
	if fp.NaiveSpinnerRecall < 0.9 {
		t.Errorf("fingerprint checks naive-spinner recall %v", fp.NaiveSpinnerRecall)
	}
	if fp.SpoofedSpinnerRecall > 0.1 {
		t.Errorf("fingerprint checks spoofed-spinner recall %v, spoofing should evade", fp.SpoofedSpinnerRecall)
	}
	// Combined layer dominates each alone on the classes they cover.
	comb := byName["volume + fingerprint"]
	if comb.ScraperRecall < 0.9 || comb.NaiveSpinnerRecall < 0.9 {
		t.Errorf("combined detector regressed: %+v", comb)
	}
	// Streaming signals: the only detector that also catches the spoofed
	// spinner and the pumper — their per-request exit rotation is invisible
	// to session features (sessionization shatters them into single-request
	// sessions) but lights up the online distinct-IP cardinality signal.
	st := byName["streaming signals"]
	if st.ScraperRecall < 0.9 || st.NaiveSpinnerRecall < 0.9 {
		t.Errorf("streaming signals missed high-volume/naive classes: %+v", st)
	}
	if st.SpoofedSpinnerRecall < 0.9 || st.PumperRecall < 0.9 {
		t.Errorf("streaming signals missed rotation classes: spoofed %v pumper %v",
			st.SpoofedSpinnerRecall, st.PumperRecall)
	}
	if st.HumanFPR > 0.02 {
		t.Errorf("streaming signals human FPR %v", st.HumanFPR)
	}
	// Entity graph: the structural detector. Both spinners and the pumper
	// funnel through shared fingerprints linked to rotating exits, so their
	// components grow and accumulate weak score regardless of spoofing
	// quality; the single-exit scraper builds no linkage structure and is
	// someone else's job. Humans must stay clean.
	eg := byName["entity graph"]
	if eg.NaiveSpinnerRecall < 0.9 || eg.SpoofedSpinnerRecall < 0.9 || eg.PumperRecall < 0.9 {
		t.Errorf("entity graph missed linkage classes: %+v", eg)
	}
	if eg.HumanFPR > 0.02 {
		t.Errorf("entity graph human FPR %v", eg.HumanFPR)
	}
}

func TestHoneypotShape(t *testing.T) {
	res, err := RunHoneypot(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 {
		t.Fatalf("arms = %d", len(res.Arms))
	}
	blocking, decoy := res.Arms[0], res.Arms[1]
	// Blocking: real damage plus rotation churn.
	if blocking.Rotations < 5 {
		t.Fatalf("blocking arm saw %d rotations, want a rotation war", blocking.Rotations)
	}
	if blocking.RulesAdded == 0 {
		t.Fatal("blocking arm installed no rules")
	}
	// Decoy: real damage collapses, attacker stops rotating entirely.
	if decoy.RealSeatHours > blocking.RealSeatHours/4 {
		t.Fatalf("decoy real damage %v vs blocking %v, want sharp reduction",
			decoy.RealSeatHours, blocking.RealSeatHours)
	}
	if decoy.DecoySeatHours < blocking.RealSeatHours {
		t.Fatalf("decoy absorbed %v seat-hours, want at least the blocking arm's damage",
			decoy.DecoySeatHours)
	}
	if decoy.Rotations != 0 {
		t.Fatalf("decoy arm still saw %d rotations; deception should remove the incentive", decoy.Rotations)
	}
	// The attacker wastes at least as much proxy spend while achieving
	// nothing real.
	if decoy.AttackerProxySpendUSD < blocking.AttackerProxySpendUSD {
		t.Fatalf("decoy proxy spend %v below blocking %v",
			decoy.AttackerProxySpendUSD, blocking.AttackerProxySpendUSD)
	}
}

func TestEconomicsShape(t *testing.T) {
	res, err := RunEconomics(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CaptchaSweep) != 4 || len(res.CapSweep) != 3 {
		t.Fatalf("sweep sizes %d/%d", len(res.CaptchaSweep), len(res.CapSweep))
	}
	base := res.CaptchaSweep[0]
	if base.ProfitUSD <= 0 {
		t.Fatal("unmitigated pumping not profitable — economics miscalibrated")
	}
	// Profit declines monotonically with solve cost but stays positive at
	// market prices (the paper: CAPTCHAs add cost, not a kill switch).
	for i := 1; i < len(res.CaptchaSweep); i++ {
		if res.CaptchaSweep[i].ProfitUSD >= res.CaptchaSweep[i-1].ProfitUSD {
			t.Fatalf("profit not declining across captcha sweep: %v then %v",
				res.CaptchaSweep[i-1].ProfitUSD, res.CaptchaSweep[i].ProfitUSD)
		}
	}
	if res.CaptchaSweep[1].ProfitUSD <= 0 {
		t.Fatal("market-price CAPTCHA bankrupted the attack; should only tax it")
	}
	// Break-even solve cost far above market prices.
	if res.BreakEvenSolveCostUSD < 0.02 {
		t.Fatalf("break-even solve cost %v implausibly low", res.BreakEvenSolveCostUSD)
	}
	// Volume caps collapse revenue (and thus profit) toward zero.
	for i := 1; i < len(res.CapSweep); i++ {
		if res.CapSweep[i].MessagesDelivered >= res.CapSweep[i-1].MessagesDelivered {
			t.Fatal("tighter cap did not reduce delivered volume")
		}
	}
	tightest := res.CapSweep[len(res.CapSweep)-1]
	if tightest.ProfitUSD > base.ProfitUSD/20 {
		t.Fatalf("tightest cap leaves profit %v of %v, want collapse",
			tightest.ProfitUSD, base.ProfitUSD)
	}
	// Caps cost legitimate users nothing in this scenario.
	if tightest.HumanFriction != 0 {
		t.Fatalf("locator cap hurt %d legitimate requests", tightest.HumanFriction)
	}
}
