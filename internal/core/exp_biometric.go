package core

import (
	"fmt"
	"io"

	"funabuse/internal/biometric"
	"funabuse/internal/metrics"
	"funabuse/internal/runner"
	"funabuse/internal/simrand"
)

// BiometricScore is one behaviour class's outcome under the biometric
// detectors.
type BiometricScore struct {
	Class string
	// Reservations is how many form submissions the class produced.
	Reservations int
	// ThresholdRecall is the share flagged by the static thresholds.
	ThresholdRecall float64
	// CombinedRecall adds the replay-correlation detector.
	CombinedRecall float64
	// TopReason is the most frequent triggering signal.
	TopReason string
}

// BiometricResult is the Section V future-work experiment: behavioural
// biometrics evaluated on per-reservation interaction traces. Where the
// session-volume detectors of E6 score zero recall on one-hold-per-30-min
// abuse, the interaction micro-dynamics of each individual reservation
// carry enough signal to catch commodity automation — and the replay tier
// that evades static thresholds falls to cross-submission correlation.
type BiometricResult struct {
	Scores []BiometricScore
	// HumanFPRThreshold and HumanFPRCombined are the false-positive rates
	// on legitimate reservations.
	HumanFPRThreshold float64
	HumanFPRCombined  float64
}

// Table renders the comparison.
func (r BiometricResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Behavioural biometrics — per-reservation recall (session-volume recall on the same actors: 0.00)",
		"Behaviour class", "Reservations", "Threshold recall", "+Replay correlation", "Top signal")
	for _, s := range r.Scores {
		t.AddRow(s.Class,
			fmt.Sprintf("%d", s.Reservations),
			fmt.Sprintf("%.2f", s.ThresholdRecall),
			fmt.Sprintf("%.2f", s.CombinedRecall),
			s.TopReason)
	}
	t.AddRow("human (false-positive rate)", "",
		fmt.Sprintf("%.3f", r.HumanFPRThreshold),
		fmt.Sprintf("%.3f", r.HumanFPRCombined), "")
	return t
}

// report writes the table.
func (r BiometricResult) report(w io.Writer, csv bool) {
	emit(w, r.Table(), csv)
}

// sample flattens the headline scalars for a replicate sweep.
func (r BiometricResult) sample() runner.Sample {
	var b sample
	b.add("human_fpr_threshold", r.HumanFPRThreshold)
	b.add("human_fpr_combined", r.HumanFPRCombined)
	for _, s := range r.Scores {
		b.addInt(s.Class+"/reservations", s.Reservations)
		b.add(s.Class+"/threshold_recall", s.ThresholdRecall)
		b.add(s.Class+"/combined_recall", s.CombinedRecall)
	}
	return b.s
}

// RunBiometric simulates one week of reservation form submissions: a
// legitimate population plus three low-volume spinners at increasing
// behavioural-evasion tiers (programmatic fill, scripted typing, replayed
// human recordings), then scores the biometric detectors on the per-
// submission traces.
func RunBiometric(seed uint64) (BiometricResult, error) {
	// Volumes mirror a case-B-scale week: each spinner re-holds every 30
	// minutes (336 reservations/week); the population books ~50/hour.
	const (
		humanReservations = 6000
		botReservations   = 336
	)
	rng := simrand.New(seed)
	gen := biometric.NewGenerator(rng.Derive("traces"))
	threshold := biometric.NewDetector()
	replay := biometric.NewReplayDetector(4096)

	classes := []struct {
		class biometric.Class
		n     int
	}{
		{biometric.ClassHuman, humanReservations},
		{biometric.ClassProgrammatic, botReservations},
		{biometric.ClassScripted, botReservations},
		{biometric.ClassReplay, botReservations},
	}

	var res BiometricResult
	for _, c := range classes {
		var thresholdHits, combinedHits int
		reasons := map[string]int{}
		for range c.n {
			// A typical reservation form: 4 fields, ~30 typed characters
			// per passenger record.
			tr := gen.Generate(c.class, 4, 30)
			v := threshold.Judge(tr)
			isReplay := replay.Observe(tr)
			if v.Flagged {
				thresholdHits++
				reasons[v.Reason]++
			}
			if v.Flagged || isReplay {
				combinedHits++
				if !v.Flagged {
					reasons["replay-correlation"]++
				}
			}
		}
		top := ""
		topN := 0
		for reason, n := range reasons {
			if n > topN || (n == topN && reason < top) {
				top, topN = reason, n
			}
		}
		score := BiometricScore{
			Class:           c.class.String(),
			Reservations:    c.n,
			ThresholdRecall: float64(thresholdHits) / float64(c.n),
			CombinedRecall:  float64(combinedHits) / float64(c.n),
			TopReason:       top,
		}
		if c.class == biometric.ClassHuman {
			res.HumanFPRThreshold = score.ThresholdRecall
			res.HumanFPRCombined = score.CombinedRecall
			score.ThresholdRecall = 0 // recall is undefined for the negative class
			score.CombinedRecall = 0
			score.Class = "human (see FPR row)"
			score.TopReason = ""
		}
		res.Scores = append(res.Scores, score)
	}
	return res, nil
}
