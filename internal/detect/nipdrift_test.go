package detect

import (
	"testing"
	"time"

	"funabuse/internal/booking"
	"funabuse/internal/fingerprint"
	"funabuse/internal/simrand"
)

// journalWithShares builds n accepted records whose NiP distribution
// approximates the given shares (index i = party size i+1).
func journalWithShares(n int, shares []float64) []booking.Record {
	out := make([]booking.Record, 0, n)
	c := simrand.NewCategorical(shares)
	r := simrand.New(42)
	for i := range n {
		out = append(out, booking.Record{
			HoldID:  booking.HoldID(i + 1),
			NiP:     c.Draw(r) + 1,
			Outcome: booking.OutcomeAccepted,
		})
	}
	return out
}

var typicalWeek = []float64{0.52, 0.30, 0.08, 0.05, 0.02, 0.015, 0.015}

func TestNoDriftOnSimilarWeek(t *testing.T) {
	baseline := journalWithShares(5000, typicalWeek)
	window := journalWithShares(5000, typicalWeek)
	d := NewNiPDrift(baseline, 7)
	rep := d.Compare(window)
	if rep.Anomalous() {
		t.Fatalf("similar week flagged anomalous: PSI=%v", rep.PSI)
	}
	if rep.PSI > 0.02 {
		t.Fatalf("PSI %v too large for same distribution", rep.PSI)
	}
}

func TestAttackWeekDriftDetected(t *testing.T) {
	baseline := journalWithShares(5000, typicalWeek)
	// Attack week: NiP=6 share jumps dramatically (Fig. 1 middle bar).
	attacked := []float64{0.30, 0.17, 0.05, 0.03, 0.02, 0.42, 0.01}
	window := journalWithShares(5000, attacked)
	d := NewNiPDrift(baseline, 7)
	rep := d.Compare(window)
	if !rep.Anomalous() {
		t.Fatalf("attack week not flagged: PSI=%v", rep.PSI)
	}
	if rep.TopBucket != 6 {
		t.Fatalf("TopBucket = %d, want 6", rep.TopBucket)
	}
	if rep.TopBucketDelta < 0.3 {
		t.Fatalf("TopBucketDelta = %v", rep.TopBucketDelta)
	}
	if rep.ChiSquare <= 0 {
		t.Fatalf("ChiSquare = %v", rep.ChiSquare)
	}
}

func TestLowNiPAttackIsSubtler(t *testing.T) {
	// The paper: attackers now start with small NiP values to blend in.
	// The same attack volume at NiP=2 moves PSI far less than at NiP=6.
	baseline := journalWithShares(5000, typicalWeek)
	d := NewNiPDrift(baseline, 7)
	highNiP := d.Compare(journalWithShares(5000, []float64{0.40, 0.23, 0.06, 0.04, 0.015, 0.24, 0.015}))
	lowNiP := d.Compare(journalWithShares(5000, []float64{0.40, 0.50, 0.04, 0.03, 0.01, 0.01, 0.01}))
	if lowNiP.PSI >= highNiP.PSI {
		t.Fatalf("low-NiP attack PSI %v not below high-NiP PSI %v", lowNiP.PSI, highNiP.PSI)
	}
}

func TestBaselineCopied(t *testing.T) {
	d := NewNiPDrift(journalWithShares(100, typicalWeek), 7)
	b := d.Baseline()
	b[0] = 99
	if d.Baseline()[0] == 99 {
		t.Fatal("Baseline exposed internal slice")
	}
}

func TestProfileActors(t *testing.T) {
	var records []booking.Record
	id := booking.HoldID(1)
	add := func(actor string, nip int, n int) {
		for range n {
			records = append(records, booking.Record{
				HoldID: id, NiP: nip, Outcome: booking.OutcomeAccepted, ActorID: actor,
			})
			id++
		}
	}
	add("attacker", 6, 40)
	add("human-1", 2, 3)
	add("human-2", 1, 1)
	records = append(records, booking.Record{HoldID: id, NiP: 9, Outcome: booking.OutcomeRejectedCap, ActorID: "attacker"})

	profiles := ProfileActors(records)
	if len(profiles) != 3 {
		t.Fatalf("profiles %d", len(profiles))
	}
	if profiles[0].ActorID != "attacker" || profiles[0].Holds != 40 || profiles[0].DominantNiP != 6 {
		t.Fatalf("top profile %+v", profiles[0])
	}
	if profiles[0].DominantSpan != 40 {
		t.Fatalf("dominant span %d", profiles[0].DominantSpan)
	}
}

func TestFingerprintRulesBlocklist(t *testing.T) {
	rules := NewFingerprintRules()
	g := fingerprint.NewGenerator(simrand.New(1))
	f := g.Organic()
	at := time.Date(2022, 5, 2, 0, 0, 0, 0, time.UTC)

	if v := rules.Judge(f, f.Hash(), at); v.Flagged {
		t.Fatalf("clean organic print flagged: %+v", v)
	}
	rules.Block(f.Hash(), at)
	if rules.Rules() != 1 {
		t.Fatalf("Rules() = %d", rules.Rules())
	}
	v := rules.Judge(f, f.Hash(), at.Add(2*time.Hour))
	if !v.Flagged || v.Reason != "fp-blocklist" {
		t.Fatalf("verdict %+v", v)
	}
	life, ok := rules.RuleLifetime(f.Hash())
	if !ok || life != 2*time.Hour {
		t.Fatalf("RuleLifetime = %v, %v", life, ok)
	}
}

func TestFingerprintRulesArtifacts(t *testing.T) {
	rules := NewFingerprintRules()
	g := fingerprint.NewGenerator(simrand.New(2))
	at := time.Now()
	judge := func(f fingerprint.Fingerprint) Verdict { return rules.Judge(f, f.Hash(), at) }
	v := judge(g.NaiveHeadless())
	if !v.Flagged || v.Reason != "fp-artifact" {
		t.Fatalf("verdict %+v", v)
	}
	// With artifact checks off, the inconsistency family still fires.
	rules.CheckArtifacts = false
	v = judge(g.NaiveHeadless())
	if !v.Flagged {
		t.Fatal("headless print passed with artifacts off but consistency on")
	}
	rules.CheckConsistency = false
	v = judge(g.NaiveHeadless())
	if v.Flagged {
		t.Fatalf("all static checks off but still flagged: %+v", v)
	}
}

func TestFingerprintRulesStaleness(t *testing.T) {
	rules := NewFingerprintRules()
	at := time.Date(2022, 5, 2, 0, 0, 0, 0, time.UTC)
	rules.Block(111, at)
	rules.Block(222, at)
	g := fingerprint.NewGenerator(simrand.New(3))
	f := g.Organic()
	rules.Block(f.Hash(), at)
	rules.Judge(f, f.Hash(), at.Add(time.Hour)) // rule 3 matches once
	stale := rules.StaleRules(at.Add(30 * time.Minute))
	if stale != 2 {
		t.Fatalf("StaleRules = %d, want 2", stale)
	}
	rules.Unblock(111)
	if rules.Rules() != 2 {
		t.Fatalf("Rules() after unblock = %d", rules.Rules())
	}
}

func TestVelocityThreshold(t *testing.T) {
	v := NewVelocity(time.Hour, 3)
	at := time.Date(2022, 12, 1, 0, 0, 0, 0, time.UTC)
	for i := range 3 {
		if v.Observe("path:/sms", at.Add(time.Duration(i)*time.Minute)) {
			t.Fatalf("flagged at event %d", i+1)
		}
	}
	if !v.Observe("path:/sms", at.Add(4*time.Minute)) {
		t.Fatal("not flagged above threshold")
	}
	hot := v.HotKeys()
	if len(hot) != 1 || hot[0] != "path:/sms" {
		t.Fatalf("HotKeys = %v", hot)
	}
}

func TestVelocityWindowSlides(t *testing.T) {
	v := NewVelocity(time.Hour, 2)
	at := time.Date(2022, 12, 1, 0, 0, 0, 0, time.UTC)
	v.Observe("k", at)
	v.Observe("k", at.Add(time.Minute))
	// Two hours later the earlier events have aged out.
	if v.Observe("k", at.Add(2*time.Hour)) {
		t.Fatal("stale events still counted")
	}
	if v.Count("k") != 1 {
		t.Fatalf("Count = %d after slide", v.Count("k"))
	}
}

func TestVelocityKeysIndependent(t *testing.T) {
	v := NewVelocity(time.Hour, 1)
	at := time.Date(2022, 12, 1, 0, 0, 0, 0, time.UTC)
	v.Observe("a", at)
	if v.Observe("b", at) {
		t.Fatal("keys interfered")
	}
	v.Reset()
	if v.Count("a") != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestVelocityDefaults(t *testing.T) {
	v := NewVelocity(0, 0)
	if v.Window() != time.Hour || v.Threshold() != 1 {
		t.Fatalf("defaults %v/%d", v.Window(), v.Threshold())
	}
}
