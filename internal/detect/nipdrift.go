package detect

import (
	"math"

	"funabuse/internal/booking"
)

// NiPDrift quantifies how far a window's Number-in-Party distribution has
// drifted from a baseline — the anomaly that exposes the Fig. 1 attack week
// and, with tighter thresholds, the low-NiP variants the paper says came
// later.
type NiPDrift struct {
	// MaxBucket folds larger parties into one bucket (Fig. 1 folds 7+).
	MaxBucket int
	// baseline holds the per-bucket reference shares.
	baseline []float64
}

// NewNiPDrift fits the baseline from a reference journal window (an
// "average week").
func NewNiPDrift(baselineRecords []booking.Record, maxBucket int) *NiPDrift {
	if maxBucket < 2 {
		maxBucket = 9
	}
	hist := booking.NiPHistogram(baselineRecords, maxBucket)
	return &NiPDrift{
		MaxBucket: maxBucket,
		baseline:  booking.NiPShares(hist, maxBucket),
	}
}

// DriftReport summarises one window against the baseline.
type DriftReport struct {
	// PSI is the population stability index, the drift measure fraud teams
	// use operationally (>0.25 is conventionally "major shift").
	PSI float64
	// TopBucket is the 1-based bucket with the largest positive share
	// deviation, i.e. where the attack concentrates.
	TopBucket int
	// TopBucketDelta is that bucket's share increase over baseline.
	TopBucketDelta float64
}

// Anomalous applies the conventional PSI threshold.
func (r DriftReport) Anomalous() bool { return r.PSI > 0.25 }

// Compare evaluates a journal window against the baseline.
func (d *NiPDrift) Compare(window []booking.Record) DriftReport {
	hist := booking.NiPHistogram(window, d.MaxBucket)
	shares := booking.NiPShares(hist, d.MaxBucket)

	const eps = 1e-4
	var rep DriftReport
	for i := range shares {
		expected := d.baseline[i]
		observed := shares[i]
		e := math.Max(expected, eps)
		o := math.Max(observed, eps)
		rep.PSI += (o - e) * math.Log(o/e)
		if delta := observed - expected; delta > rep.TopBucketDelta {
			rep.TopBucketDelta = delta
			rep.TopBucket = i + 1
		}
	}
	return rep
}
