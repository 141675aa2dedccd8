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

// Verdict is a binary detection decision for one unit (session,
// reservation, request).
type Verdict struct {
	Flagged bool
	// Score is the detector's confidence in [0,1] where defined.
	Score float64
	// Reason names the rule or signal that fired.
	Reason string
}
