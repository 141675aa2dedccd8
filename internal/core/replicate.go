package core

import (
	"funabuse/internal/runner"
)

// This file adapts every core.Run* experiment to the replicate runner:
// each experiment becomes a runner.Func that rebuilds its scenario from a
// seed and flattens the result into named scalar metrics, so a replicate
// sweep can report per-metric mean/std/min/max across seeds. Metric names
// are stable across seeds (they derive from configuration-driven labels,
// never from sampled values), which is what lets the runner merge samples
// into per-metric accumulators.

// Experiment couples an experiment id with its replicate function.
type Experiment struct {
	ID  string
	Run runner.Func
}

// Experiments returns every paper artefact as a replicable experiment, in
// the canonical -exp all order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", ReplicateFig1},
		{"table1", ReplicateTable1},
		{"caseA", ReplicateCaseA},
		{"caseB", ReplicateCaseB},
		{"caseC", ReplicateCaseC},
		{"detection", ReplicateDetection},
		{"honeypot", ReplicateHoneypot},
		{"economics", ReplicateEconomics},
		{"biometric", ReplicateBiometric},
		{"ablations", ReplicateAblations},
		{"carrier", ReplicateCarrier},
		{"pricing", ReplicatePricing},
		{"chaos", ReplicateChaos},
	}
}

// ExperimentByID returns the replicate function for one experiment id.
func ExperimentByID(id string) (runner.Func, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// sample builds a Sample incrementally with less noise at call sites.
type sample struct{ s runner.Sample }

func (b *sample) add(name string, v float64)  { b.s = append(b.s, runner.Metric{Name: name, Value: v}) }
func (b *sample) addInt(name string, v int)   { b.add(name, float64(v)) }
func (b *sample) addBool(name string, v bool) { b.add(name, b2f(v)) }

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// ReplicateFig1 runs Fig. 1 for one seed and reports its headline scalars.
func ReplicateFig1(seed uint64) (runner.Sample, error) {
	res, err := RunFig1(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	b.addInt("attacker_final_nip", res.AttackerFinalNiP)
	b.addInt("attacker_holds", res.AttackerHolds)
	for _, w := range res.Weeks {
		b.addInt(w.Label+"/holds", w.Holds)
		// The attack signature the figure exists to show: the NiP=6 and
		// NiP=4 shares before and after the cap.
		b.add(w.Label+"/share_nip4", w.Shares[3])
		b.add(w.Label+"/share_nip6", w.Shares[5])
	}
	return b.s, nil
}

// ReplicateTable1 runs Table I for one seed.
func ReplicateTable1(seed uint64) (runner.Sample, error) {
	res, err := RunTable1(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	b.add("global_increase_pct", res.GlobalIncreasePct)
	b.addInt("attack_countries", res.AttackCountries)
	b.addInt("pump_messages", res.PumpMessages)
	b.add("app_cost_usd", res.AppCostUSD)
	b.add("fraud_revenue_usd", res.FraudRevenueUSD)
	if len(res.Top10) > 0 {
		b.add("top_surge_pct", res.Top10[0].IncreasePct)
	}
	return b.s, nil
}

// ReplicateCaseA runs case study A for one seed.
func ReplicateCaseA(seed uint64) (runner.Sample, error) {
	res, err := RunCaseA(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	b.add("mean_rotation_hours", res.MeanRotationInterval.Hours())
	b.addInt("rotations", res.Rotations)
	b.addInt("rules_added", res.RulesAdded)
	b.addBool("cap_applied", res.CapApplied)
	b.add("cap_delay_hours", res.CapDelay.Hours())
	b.addInt("attacker_final_nip", res.AttackerFinalNiP)
	b.addInt("attacker_holds", res.AttackerHolds)
	b.add("ceased_hours_before_departure", res.Departure.Sub(res.LastAttackHold).Hours())
	b.add("seat_hours_lost", res.SeatHoursLost)
	b.addInt("prints_flagged_online", res.PrintsFlaggedOnline)
	b.addInt("humans_flagged_online", res.HumansFlaggedOnline)
	return b.s, nil
}

// ReplicateCaseB runs case study B for one seed.
func ReplicateCaseB(seed uint64) (runner.Sample, error) {
	res, err := RunCaseB(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	b.addBool("auto_flagged", res.AutoFlagged)
	b.addBool("manual_flagged", res.ManualFlagged)
	b.addInt("human_keys_flagged", res.HumanKeysFlagged)
	b.add("volume_rules_auto_recall", res.VolumeRulesAutoRecall)
	b.add("volume_rules_manual_recall", res.VolumeRulesManualRecall)
	b.add("graph_auto_recall", res.GraphAutoRecall)
	b.add("graph_manual_recall", res.GraphManualRecall)
	return b.s, nil
}

// ReplicateCaseC runs the rate-limit-key ablation for one seed.
func ReplicateCaseC(seed uint64) (runner.Sample, error) {
	res, err := RunCaseC(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	for _, v := range res.Variants {
		b.addBool(v.Name+"/detected", v.Detected)
		b.add(v.Name+"/detection_delay_hours", v.DetectionDelay.Hours())
		b.addInt(v.Name+"/pump_delivered", v.PumpDelivered)
		b.add(v.Name+"/owner_cost_usd", v.PumpCostUSD)
		b.addInt(v.Name+"/legit_friction", v.LegitFriction)
	}
	return b.s, nil
}

// ReplicateDetection runs the Section III detector comparison for one seed.
func ReplicateDetection(seed uint64) (runner.Sample, error) {
	res, err := RunDetectionComparison(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	b.addInt("human_sessions", res.HumanSessions)
	b.addInt("scraper_sessions", res.ScraperSessions)
	b.addInt("spinner_sessions", res.SpinnerSessions)
	b.addInt("pumper_sessions", res.PumperSessions)
	for _, s := range res.Scores {
		b.add(s.Detector+"/scraper_recall", s.ScraperRecall)
		b.add(s.Detector+"/naive_spinner_recall", s.NaiveSpinnerRecall)
		b.add(s.Detector+"/spoofed_spinner_recall", s.SpoofedSpinnerRecall)
		b.add(s.Detector+"/pumper_recall", s.PumperRecall)
		b.add(s.Detector+"/human_fpr", s.HumanFPR)
	}
	return b.s, nil
}

// ReplicateHoneypot runs the honeypot-economics comparison for one seed.
func ReplicateHoneypot(seed uint64) (runner.Sample, error) {
	res, err := RunHoneypot(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	for _, a := range res.Arms {
		b.add(a.Name+"/real_seat_hours", a.RealSeatHours)
		b.add(a.Name+"/decoy_seat_hours", a.DecoySeatHours)
		b.addInt(a.Name+"/rotations", a.Rotations)
		b.addInt(a.Name+"/rules_added", a.RulesAdded)
		b.addInt(a.Name+"/attacker_holds", a.AttackerHolds)
		b.add(a.Name+"/attacker_proxy_spend_usd", a.AttackerProxySpendUSD)
		b.addInt(a.Name+"/legit_holds", a.LegitHolds)
	}
	return b.s, nil
}

// ReplicateEconomics runs the economic-deterrent sweeps for one seed.
func ReplicateEconomics(seed uint64) (runner.Sample, error) {
	res, err := RunEconomics(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	b.add("break_even_solve_cost_usd", res.BreakEvenSolveCostUSD)
	rows := func(prefix string, sweep []EconRow) {
		for _, e := range sweep {
			b.addInt(prefix+e.Label+"/delivered", e.MessagesDelivered)
			b.add(prefix+e.Label+"/attacker_profit_usd", e.ProfitUSD)
			b.add(prefix+e.Label+"/owner_cost_usd", e.OwnerCostUSD)
		}
	}
	rows("captcha:", res.CaptchaSweep)
	rows("cap:", res.CapSweep)
	return b.s, nil
}

// ReplicateBiometric runs the behavioural-biometric study for one seed.
func ReplicateBiometric(seed uint64) (runner.Sample, error) {
	res, err := RunBiometric(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	b.add("human_fpr_threshold", res.HumanFPRThreshold)
	b.add("human_fpr_combined", res.HumanFPRCombined)
	for _, s := range res.Scores {
		b.addInt(s.Class+"/reservations", s.Reservations)
		b.add(s.Class+"/threshold_recall", s.ThresholdRecall)
		b.add(s.Class+"/combined_recall", s.CombinedRecall)
	}
	return b.s, nil
}

// ReplicateAblations runs the design-choice studies for one seed.
func ReplicateAblations(seed uint64) (runner.Sample, error) {
	res, err := RunAblations(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	for _, r := range res.TTL {
		b.add("ttl:"+r.TTL.String()+"/seat_hours_lost", r.SeatHoursLost)
		b.add("ttl:"+r.TTL.String()+"/leverage", r.LeverageSeatHoursPerRequest)
	}
	for _, r := range res.Granularity {
		b.add("rule:"+r.Rule+"/rotations_survived", r.RotationsSurvived)
		b.add("rule:"+r.Rule+"/legit_match_rate", r.LegitMatchRate)
	}
	for _, r := range res.Gaps {
		b.addInt("gap:"+r.Gap.String()+"/spinner_sessions", r.SpinnerSessions)
		b.add("gap:"+r.Gap.String()+"/spinner_recall", r.SpinnerRecall)
		b.add("gap:"+r.Gap.String()+"/scraper_recall", r.ScraperRecall)
	}
	return b.s, nil
}

// ReplicateCarrier runs the settlement-chain mitigation study for one seed.
func ReplicateCarrier(seed uint64) (runner.Sample, error) {
	res, err := RunCarrier(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	b.addInt("pump_messages", res.PumpMessages)
	for _, a := range res.Arms {
		b.add(a.Name+"/attacker_kickback_usd", a.AttackerKickbackUSD)
		b.add(a.Name+"/withheld_usd", a.WithheldUSD)
		b.add(a.Name+"/delivery_rate", a.DeliveryRate)
		b.addInt(a.Name+"/settled", a.Settled)
		b.addInt(a.Name+"/unroutable", a.Unroutable)
	}
	return b.s, nil
}

// ReplicateChaos runs the defence-outage study for one seed.
func ReplicateChaos(seed uint64) (runner.Sample, error) {
	res, err := RunChaos(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	for _, a := range res.Arms {
		prefix := a.Workload + ":" + a.Policy.String()
		b.addInt(prefix+"/abuse_denied_healthy", a.AbuseDeniedHealthy)
		b.addInt(prefix+"/leaked", a.Leaked)
		b.addInt(prefix+"/false_denials", a.FalseDenials)
		b.add(prefix+"/degraded", float64(a.Degraded))
		b.add(prefix+"/breaker_opens", float64(a.BreakerOpens))
	}
	return b.s, nil
}

// ReplicatePricing runs the fare-distortion study for one seed.
func ReplicatePricing(seed uint64) (runner.Sample, error) {
	res, err := RunPricing(seed)
	if err != nil {
		return nil, err
	}
	var b sample
	b.add("baseline_mean_fare_usd", res.BaselineMeanFareUSD)
	b.add("attack_mean_fare_usd", res.AttackMeanFareUSD)
	b.add("counterfactual_mean_fare_usd", res.CounterfactualMeanFareUSD)
	b.add("distortion_usd", res.DistortionUSD)
	b.add("inflated_share", res.InflatedShare)
	b.addInt("bucket_upgrades", res.BucketUpgrades)
	b.addInt("samples", res.Samples)
	return b.s, nil
}
