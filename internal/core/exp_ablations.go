package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"funabuse/internal/attack"
	"funabuse/internal/booking"
	"funabuse/internal/detect"
	"funabuse/internal/fingerprint"
	"funabuse/internal/metrics"
	"funabuse/internal/proxy"
	"funabuse/internal/runner"
	"funabuse/internal/simrand"
	"funabuse/internal/weblog"
	"funabuse/internal/workload"
)

// TTLRow is one point of the hold-TTL ablation.
type TTLRow struct {
	TTL time.Duration
	// AttackerRequests is how many holds the attacker issued in the
	// window.
	AttackerRequests int
	// SeatHoursLost is the inventory-time the attack removed from sale.
	SeatHoursLost float64
	// LeverageSeatHoursPerRequest is the attacker's damage efficiency —
	// the quantity the hold-duration design choice controls.
	LeverageSeatHoursPerRequest float64
}

// GranularityRow is one point of the block-rule granularity ablation.
type GranularityRow struct {
	Rule string
	// RotationsSurvived is how many attacker rotations the rule kept
	// matching (exact-hash rules die on the first).
	RotationsSurvived float64
	// LegitMatchRate is the share of the legitimate population the rule
	// collides with — the false-positive price of coarser keys.
	LegitMatchRate float64
}

// GapRow is one point of the sessionization-gap ablation.
type GapRow struct {
	Gap time.Duration
	// SpinnerSessions is how many sessions the low-volume attacker's
	// traffic fragments into.
	SpinnerSessions int
	// SpinnerRecall is the volume rules' recall at this gap.
	SpinnerRecall float64
	// ScraperRecall is the volume rules' recall on the scraper baseline.
	ScraperRecall float64
}

// AblationResult collects the design-choice studies DESIGN.md §4 calls out.
type AblationResult struct {
	TTL         []TTLRow
	Granularity []GranularityRow
	Gaps        []GapRow
}

// report writes the three studies, each followed by a blank line.
func (r AblationResult) report(w io.Writer, csv bool) {
	ttl := metrics.NewTable("Ablation — hold TTL vs DoI leverage (3-day attack, 10 streams)",
		"Hold TTL", "Attacker requests", "Seat-hours lost", "Seat-hours per request")
	for _, row := range r.TTL {
		ttl.AddRow(row.TTL.String(),
			fmt.Sprintf("%d", row.AttackerRequests),
			fmt.Sprintf("%.0f", row.SeatHoursLost),
			fmt.Sprintf("%.2f", row.LeverageSeatHoursPerRequest))
	}
	gran := metrics.NewTable("Ablation — block-rule granularity vs naive rotation",
		"Rule key", "Rotations survived (mean)", "Legit match rate")
	for _, row := range r.Granularity {
		gran.AddRow(row.Rule,
			fmt.Sprintf("%.1f", row.RotationsSurvived),
			fmt.Sprintf("%.3f", row.LegitMatchRate))
	}
	gaps := metrics.NewTable("Ablation — sessionization gap vs low-volume abuse visibility",
		"Gap", "Spinner sessions", "Spinner recall", "Scraper recall")
	for _, row := range r.Gaps {
		gaps.AddRow(row.Gap.String(),
			fmt.Sprintf("%d", row.SpinnerSessions),
			fmt.Sprintf("%.2f", row.SpinnerRecall),
			fmt.Sprintf("%.2f", row.ScraperRecall))
	}
	for _, t := range []*metrics.Table{ttl, gran, gaps} {
		emit(w, t, csv)
		fmt.Fprintln(w)
	}
}

// sample flattens the three studies for a replicate sweep.
func (r AblationResult) sample() runner.Sample {
	var b sample
	for _, row := range r.TTL {
		b.add("ttl:"+row.TTL.String()+"/seat_hours_lost", row.SeatHoursLost)
		b.add("ttl:"+row.TTL.String()+"/leverage", row.LeverageSeatHoursPerRequest)
	}
	for _, row := range r.Granularity {
		b.add("rule:"+row.Rule+"/rotations_survived", row.RotationsSurvived)
		b.add("rule:"+row.Rule+"/legit_match_rate", row.LegitMatchRate)
	}
	for _, row := range r.Gaps {
		b.addInt("gap:"+row.Gap.String()+"/spinner_sessions", row.SpinnerSessions)
		b.add("gap:"+row.Gap.String()+"/spinner_recall", row.SpinnerRecall)
		b.add("gap:"+row.Gap.String()+"/scraper_recall", row.ScraperRecall)
	}
	return b.s
}

// RunAblations runs the three design-choice studies.
func RunAblations(seed uint64) (AblationResult, error) {
	var res AblationResult
	var err error
	if res.TTL, err = ablateTTL(seed); err != nil {
		return res, err
	}
	res.Granularity = ablateGranularity(seed)
	if res.Gaps, err = ablateSessionGap(seed); err != nil {
		return res, err
	}
	return res, nil
}

// ablateTTL reruns the same 3-day spinning attack under different hold
// durations. The attacker learns the TTL in reconnaissance (ReholdInterval
// tracks it), so longer holds mean fewer, higher-leverage requests.
func ablateTTL(seed uint64) ([]TTLRow, error) {
	ttls := []time.Duration{
		15 * time.Minute, 30 * time.Minute, time.Hour, 2 * time.Hour, 4 * time.Hour,
	}
	out := make([]TTLRow, 0, len(ttls))
	for _, ttl := range ttls {
		envCfg := DefaultEnvConfig(seed)
		envCfg.Booking.HoldTTL = ttl
		envCfg.TargetDep = SimStart.Add(10 * 24 * time.Hour)
		env := NewEnv(envCfg)

		spinner := env.StartSpinner()
		if err := env.Run(3 * 24 * time.Hour); err != nil {
			return nil, err
		}

		var records []booking.Record
		for _, r := range env.Bookings.Journal() {
			if strings.HasPrefix(r.ActorID, "spin-1") {
				records = append(records, r)
			}
		}
		row := TTLRow{
			TTL:              ttl,
			AttackerRequests: spinner.Stats().Attempts,
			SeatHoursLost:    booking.SeatHours(records, envCfg.TargetID, ttl),
		}
		if row.AttackerRequests > 0 {
			row.LeverageSeatHoursPerRequest = row.SeatHoursLost / float64(row.AttackerRequests)
		}
		out = append(out, row)
	}
	return out, nil
}

// fpRuleKey derives a block key from a fingerprint at a given granularity.
type fpRuleKey struct {
	name string
	key  func(fingerprint.Fingerprint) string
}

func granularities() []fpRuleKey {
	return []fpRuleKey{
		{name: "exact hash (paper practice)", key: func(f fingerprint.Fingerprint) string {
			return fmt.Sprintf("%x", f.Hash())
		}},
		{name: "canvas render hash", key: func(f fingerprint.Fingerprint) string {
			return fmt.Sprintf("%x", f.CanvasHash)
		}},
		{name: "browser+os+screen", key: func(f fingerprint.Fingerprint) string {
			return fmt.Sprintf("%s/%s/%dx%d", f.Browser, f.OS, f.ScreenW, f.ScreenH)
		}},
		{name: "browser+os", key: func(f fingerprint.Fingerprint) string {
			return f.Browser + "/" + f.OS
		}},
	}
}

// ablateGranularity measures, for each rule key, how many naive attacker
// rotations a rule installed on the first sighting keeps matching, and how
// much of the legitimate population the same rule collides with.
func ablateGranularity(seed uint64) []GranularityRow {
	rng := simrand.New(seed)
	legitGen := fingerprint.NewGenerator(rng.Derive("legit"))
	legit := make([]fingerprint.Fingerprint, 5000)
	for i := range legit {
		legit[i] = legitGen.Organic()
	}

	const trials = 200
	const rotationsPerTrial = 20
	out := make([]GranularityRow, 0, 4)
	for _, g := range granularities() {
		survivedTotal := 0
		for trial := range trials {
			ro := fingerprint.NewRotator(
				rng.Derive(fmt.Sprintf("rot-%s-%d", g.name, trial)),
				fingerprint.NewGenerator(rng.Derive(fmt.Sprintf("gen-%s-%d", g.name, trial))),
			)
			rule := g.key(ro.Current())
			for range rotationsPerTrial {
				if g.key(ro.Rotate()) != rule {
					break
				}
				survivedTotal++
			}
		}
		matches := 0
		// Collision rate measured against a rule installed on a random
		// sighting of the naive bot population.
		probe := fingerprint.NewRotator(
			rng.Derive("probe-"+g.name),
			fingerprint.NewGenerator(rng.Derive("probegen-"+g.name)),
		)
		rule := g.key(probe.Current())
		for _, f := range legit {
			if g.key(f) == rule {
				matches++
			}
		}
		out = append(out, GranularityRow{
			Rule:              g.name,
			RotationsSurvived: float64(survivedTotal) / float64(trials),
			LegitMatchRate:    float64(matches) / float64(len(legit)),
		})
	}
	return out
}

// ablateSessionGap builds one day of mixed traffic and sessionizes the log
// under different inactivity gaps, evaluating the volume rules at each.
func ablateSessionGap(seed uint64) ([]GapRow, error) {
	const horizon = 24 * time.Hour
	envCfg := DefaultEnvConfig(seed)
	envCfg.TargetDep = SimStart.Add(10 * 24 * time.Hour)
	env := NewEnv(envCfg)

	wl := workload.DefaultConfig(env.Flights(), SimStart.Add(horizon))
	wl.HoldsPerHour = 40
	pop := workload.NewPopulation(wl, env.App, nil, env.App, env.Sched, env.RNG.Derive("pop"), env.Registry)
	pop.Start()

	spinner := attack.NewSeatSpinner(attack.SeatSpinnerConfig{
		ID:             "spin-1",
		Flight:         envCfg.TargetID,
		TargetNiP:      2,
		ReholdInterval: envCfg.Booking.HoldTTL,
		Departure:      envCfg.TargetDep,
		Parallel:       8,
	}, env.App, env.Sched, env.RNG.Derive("spinner"), env.SpoofedRotator(),
		env.Proxies.NewSession("SG", proxy.RotatePerRequest))
	spinner.Start()

	scraper := attack.NewScraper(attack.ScraperConfig{
		ID: "scrape-1", Interval: 3 * time.Second, Requests: 8000,
	}, env.App, env.Sched, env.RNG.Derive("scraper"),
		env.Proxies.NewSession("US", proxy.RotatePerSession))
	scraper.Start()

	if err := env.Run(horizon); err != nil {
		return nil, err
	}

	rules := detect.VolumeRules{}
	gaps := []time.Duration{5 * time.Minute, 30 * time.Minute, 2 * time.Hour}
	out := make([]GapRow, 0, len(gaps))
	for _, gap := range gaps {
		sessions := weblog.Sessionize(env.App.Log().Requests(), gap)
		row := GapRow{Gap: gap}
		var spinTotal, spinHit, scrapeTotal, scrapeHit int
		for _, s := range sessions {
			flagged := rules.Judge(weblog.Extract(s)).Flagged
			switch s.Actor() {
			case weblog.ActorSeatSpinner:
				spinTotal++
				if flagged {
					spinHit++
				}
			case weblog.ActorScraper:
				scrapeTotal++
				if flagged {
					scrapeHit++
				}
			}
		}
		row.SpinnerSessions = spinTotal
		if spinTotal > 0 {
			row.SpinnerRecall = float64(spinHit) / float64(spinTotal)
		}
		if scrapeTotal > 0 {
			row.ScraperRecall = float64(scrapeHit) / float64(scrapeTotal)
		}
		out = append(out, row)
	}
	return out, nil
}
