package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"funabuse/internal/booking"
	"funabuse/internal/metrics"
	"funabuse/internal/runner"
	"funabuse/internal/workload"
)

// PricingResult quantifies the dynamic-pricing manipulation motive of the
// paper's Section II-A: Denial-of-Inventory holds consume fare-bucket
// inventory exactly like sales, so everyone shopping during the attack is
// quoted a higher fare than the flight's real occupancy justifies.
type PricingResult struct {
	// BaselineMeanFareUSD is the mean displayed fare during the quiet week.
	BaselineMeanFareUSD float64
	// AttackMeanFareUSD is the mean displayed fare during the attack week.
	AttackMeanFareUSD float64
	// CounterfactualMeanFareUSD is the attack week's mean fare with the
	// attacker's live holds removed from the occupancy — the fare real
	// demand justified.
	CounterfactualMeanFareUSD float64
	// DistortionUSD is the attack-week overcharge per displayed quote.
	DistortionUSD float64
	// InflatedShare is the fraction of attack-week samples where the
	// displayed fare exceeded the counterfactual.
	InflatedShare float64
	// BucketUpgrades counts samples pushed up by one or more fare classes.
	BucketUpgrades int
	// Samples is the hourly sample count per week.
	Samples int
}

// Table renders the distortion summary.
func (r PricingResult) Table() *metrics.Table {
	t := metrics.NewTable("Price distortion — DoI holds vs displayed fares (hourly samples)",
		"Metric", "Value")
	t.AddRow("baseline week mean fare", fmt.Sprintf("$%.2f", r.BaselineMeanFareUSD))
	t.AddRow("attack week mean fare (displayed)", fmt.Sprintf("$%.2f", r.AttackMeanFareUSD))
	t.AddRow("attack week mean fare (real demand)", fmt.Sprintf("$%.2f", r.CounterfactualMeanFareUSD))
	t.AddRow("overcharge per quote", fmt.Sprintf("$%.2f", r.DistortionUSD))
	t.AddRow("share of quotes inflated", fmt.Sprintf("%.2f", r.InflatedShare))
	t.AddRow("fare-class upgrades forced", fmt.Sprintf("%d of %d samples", r.BucketUpgrades, r.Samples))
	return t
}

// report writes the table.
func (r PricingResult) report(w io.Writer, csv bool) {
	emit(w, r.Table(), csv)
}

// sample flattens the headline scalars for a replicate sweep.
func (r PricingResult) sample() runner.Sample {
	var b sample
	b.add("baseline_mean_fare_usd", r.BaselineMeanFareUSD)
	b.add("attack_mean_fare_usd", r.AttackMeanFareUSD)
	b.add("counterfactual_mean_fare_usd", r.CounterfactualMeanFareUSD)
	b.add("distortion_usd", r.DistortionUSD)
	b.add("inflated_share", r.InflatedShare)
	b.addInt("bucket_upgrades", r.BucketUpgrades)
	b.addInt("samples", r.Samples)
	return b.s
}

// RunPricing runs one quiet week and one attack week against a target
// flight priced on a three-class fare ladder, sampling the displayed fare
// hourly alongside the counterfactual fare with attacker holds excluded.
func RunPricing(seed uint64) (PricingResult, error) {
	const week = 7 * 24 * time.Hour
	envCfg := DefaultEnvConfig(seed)
	envCfg.TargetDep = SimStart.Add(3 * 7 * 24 * time.Hour)
	env := NewEnv(envCfg)
	schedule := booking.DefaultFareSchedule(targetCap)

	flights := append(env.FleetIDs(envCfg), envCfg.TargetID)
	wl := workload.DefaultConfig(flights, SimStart.Add(2*week))
	wl.HoldsPerHour = 60
	pop := workload.NewPopulation(wl, env.App, nil, nil, env.Sched, env.RNG.Derive("pop"), env.Registry)
	pop.Start()

	type sample struct {
		displayed      float64
		counterfactual float64
		upgraded       bool
	}
	var baseline, attacked []sample

	// attackerLiveHolds estimates the attacker's currently-live held seats
	// from the journal: accepted attacker holds younger than the TTL.
	attackerLiveHolds := func(now time.Time) int {
		live := 0
		for _, r := range env.Bookings.JournalBetween(now.Add(-envCfg.Booking.HoldTTL), now) {
			if r.Flight == envCfg.TargetID && r.Outcome == booking.OutcomeAccepted &&
				strings.HasPrefix(r.ActorID, "spin-1") {
				live += r.NiP
			}
		}
		return live
	}

	sampler := env.Sched.ScheduleEvery(time.Hour, func(now time.Time) {
		av, err := env.Bookings.AvailabilityOf(envCfg.TargetID)
		if err != nil {
			return
		}
		occupied := av.Held + av.Sold
		displayed, err := schedule.Quote(occupied)
		if err != nil {
			return // sold out: no fare displayed
		}
		real := occupied - attackerLiveHolds(now)
		counterfactual, err := schedule.Quote(real)
		if err != nil {
			return
		}
		s := sample{
			displayed:      displayed,
			counterfactual: counterfactual,
			upgraded:       schedule.BucketIndex(occupied) > schedule.BucketIndex(real),
		}
		if now.Before(SimStart.Add(week)) {
			baseline = append(baseline, s)
		} else {
			attacked = append(attacked, s)
		}
	})
	defer sampler.Stop()

	if err := env.Run(week); err != nil {
		return PricingResult{}, err
	}

	env.StartSpinner(envCfg)

	if err := env.Run(2 * week); err != nil {
		return PricingResult{}, err
	}

	mean := func(samples []sample, pick func(sample) float64) float64 {
		if len(samples) == 0 {
			return 0
		}
		var sum float64
		for _, s := range samples {
			sum += pick(s)
		}
		return sum / float64(len(samples))
	}
	res := PricingResult{
		BaselineMeanFareUSD:       mean(baseline, func(s sample) float64 { return s.displayed }),
		AttackMeanFareUSD:         mean(attacked, func(s sample) float64 { return s.displayed }),
		CounterfactualMeanFareUSD: mean(attacked, func(s sample) float64 { return s.counterfactual }),
		Samples:                   len(attacked),
	}
	res.DistortionUSD = res.AttackMeanFareUSD - res.CounterfactualMeanFareUSD
	inflated := 0
	for _, s := range attacked {
		if s.displayed > s.counterfactual {
			inflated++
		}
		if s.upgraded {
			res.BucketUpgrades++
		}
	}
	if len(attacked) > 0 {
		res.InflatedShare = float64(inflated) / float64(len(attacked))
	}
	return res, nil
}
