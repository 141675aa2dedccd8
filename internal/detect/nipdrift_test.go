package detect

import (
	"testing"

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

func TestFingerprintArmConsistency(t *testing.T) {
	g := fingerprint.NewGenerator(simrand.New(2))
	f := g.NaiveHeadless()
	inc := fingerprint.Validate(f)
	if len(inc) == 0 {
		t.Fatal("headless print validates clean")
	}
	arm := FingerprintArm{Lookup: func(uint64) (fingerprint.Fingerprint, bool) { return f, true }}
	want := Verdict{Flagged: true, Reason: "fp-inconsistent:" + inc[0].Check}
	if v := arm.Judge(pumpSession(f.Hash(), "203.0.113.1")); v != want {
		t.Fatalf("verdict %+v, want %+v", v, want)
	}
}
