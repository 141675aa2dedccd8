// Package detect implements the detection side of the paper's taxonomy:
//
//   - Behaviour-based approaches (Section III-A): classical session-volume
//     rules plus from-scratch classifiers (logistic regression, Gaussian
//     naive Bayes) over web-session features.
//   - Knowledge-based approaches (Section III-B): the static fingerprint
//     consistency checks of FingerprintArm. The hash rules live in the
//     defended application's blocklist.
//   - The ad-hoc signals that actually caught the paper's attacks: passenger
//     name-pattern analysis (case B) and NiP distribution drift (case A /
//     Fig. 1). Case C's per-key velocity is the StreamMonitor's rate
//     signal here and mitigate's keyed limiter in the defence.
//
// The ground-truth actor labels carried by the substrates are only ever read
// by the evaluation helpers, never by detectors.
package detect

import "fmt"

// Verdict is a binary detection decision for one unit (session,
// reservation, request).
type Verdict struct {
	Flagged bool
	// Score is the detector's confidence in [0,1] where defined.
	Score float64
	// Reason names the rule or signal that fired.
	Reason string
}

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String summarises the matrix.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d P=%.3f R=%.3f F1=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall(), c.F1())
}
