package core

import (
	"fmt"
	"io"
	"time"

	"funabuse/internal/booking"
	"funabuse/internal/detect"
	"funabuse/internal/metrics"
	"funabuse/internal/runner"
	"funabuse/internal/workload"
)

// CaseAResult reproduces the Airline A case study's operational statistics:
// the whack-a-mole between defender block rules and attacker fingerprint
// rotation (measured mean ~5.3 h), the NiP-cap mitigation and the
// attacker's adaptation to it, and the attack ceasing two days before
// departure.
type CaseAResult struct {
	// MeanRotationInterval is the attacker's average block→reappearance
	// delay (paper: 5.3 hours).
	MeanRotationInterval time.Duration
	// Rotations is how many identities the attacker burned.
	Rotations int
	// RulesAdded is how many block rules the defender installed.
	RulesAdded int
	// CapApplied reports whether the NiP cap mitigation fired.
	CapApplied bool
	// CapDelay is how long after attack start the cap fired.
	CapDelay time.Duration
	// AttackerFinalNiP is the party size after adaptation.
	AttackerFinalNiP int
	// AttackerHolds is the attacker's accepted-hold count.
	AttackerHolds int
	// AttackStopped reports the attack ceased on its own schedule.
	AttackStopped bool
	// LastAttackHold is when the attacker last held seats.
	LastAttackHold time.Time
	// Departure is the target's departure, for the two-days-out check.
	Departure time.Time
	// SeatHoursLost integrates attacker-held seat time on the real system.
	SeatHoursLost float64
	// PrintsFlaggedOnline is how many attacker identities the streaming
	// monitor flagged for exit-IP rotation while consuming the request
	// stream — the online signal the paper's defender lacked.
	PrintsFlaggedOnline int
	// HumansFlaggedOnline counts human identities the monitor flagged; it
	// should be zero (cookies keep human keyspaces private).
	HumansFlaggedOnline int
}

// Table renders the case-study summary.
func (r CaseAResult) Table() *metrics.Table {
	t := metrics.NewTable("Case A — Seat Spinning vs adaptive defence", "Metric", "Value")
	t.AddRow("mean fingerprint rotation interval", r.MeanRotationInterval.Round(time.Minute).String())
	t.AddRow("identities burned", fmt.Sprintf("%d", r.Rotations))
	t.AddRow("block rules installed", fmt.Sprintf("%d", r.RulesAdded))
	t.AddRow("NiP cap applied", fmt.Sprintf("%v (after %s)", r.CapApplied, r.CapDelay.Round(time.Hour)))
	t.AddRow("attacker NiP after adaptation", fmt.Sprintf("%d", r.AttackerFinalNiP))
	t.AddRow("attacker holds", fmt.Sprintf("%d", r.AttackerHolds))
	t.AddRow("attack ceased before departure", fmt.Sprintf("%v (%s before)", r.AttackStopped,
		r.Departure.Sub(r.LastAttackHold).Round(time.Hour)))
	t.AddRow("seat-hours removed from sale", fmt.Sprintf("%.0f", r.SeatHoursLost))
	t.AddRow("attacker prints flagged online (IP rotation)", fmt.Sprintf("%d", r.PrintsFlaggedOnline))
	return t
}

// report writes the table and its note lines.
func (r CaseAResult) report(w io.Writer, csv bool) {
	emit(w, r.Table(), csv)
	fmt.Fprintf(w, "paper reference: mean rotation 5.3h; attack ceased 2 days before departure\n")
	fmt.Fprintf(w, "measured: mean rotation %v; ceased %v before departure\n",
		r.MeanRotationInterval.Round(time.Minute),
		r.Departure.Sub(r.LastAttackHold).Round(time.Hour))
}

// sample flattens the headline scalars for a replicate sweep.
func (r CaseAResult) sample() runner.Sample {
	var b sample
	b.add("mean_rotation_hours", r.MeanRotationInterval.Hours())
	b.addInt("rotations", r.Rotations)
	b.addInt("rules_added", r.RulesAdded)
	b.addBool("cap_applied", r.CapApplied)
	b.add("cap_delay_hours", r.CapDelay.Hours())
	b.addInt("attacker_final_nip", r.AttackerFinalNiP)
	b.addInt("attacker_holds", r.AttackerHolds)
	b.add("ceased_hours_before_departure", r.Departure.Sub(r.LastAttackHold).Hours())
	b.add("seat_hours_lost", r.SeatHoursLost)
	b.addInt("prints_flagged_online", r.PrintsFlaggedOnline)
	b.addInt("humans_flagged_online", r.HumansFlaggedOnline)
	return b.s
}

// RunCaseA replays the Airline A incident: one baseline week, then an
// adaptive spinner against a defender that reviews hourly, blocks
// fingerprints and IPs of fast-holding clients, and caps NiP on drift. The
// attacker runs 10 hold streams and rotates after the paper's measured
// 5.3 h mean reaction delay.
func RunCaseA(seed uint64) (CaseAResult, error) {
	const week = 7 * 24 * time.Hour
	envCfg := DefaultEnvConfig(seed)
	envCfg.Defence = DefenceConfig{Blocklists: true}
	// Departure 17 days in: attack starts day 7, must cease day 15.
	envCfg.TargetDep = SimStart.Add(17 * 24 * time.Hour)
	env := NewEnv(envCfg)

	flights := append(env.FleetIDs(envCfg), envCfg.TargetID)
	wl := workload.DefaultConfig(flights, SimStart.Add(17*24*time.Hour))
	wl.HoldsPerHour = 60
	pop := workload.NewPopulation(wl, env.App, nil, nil, env.Sched, env.RNG.Derive("pop"), env.Registry)
	pop.Start()

	// Baseline week teaches the drift detector the average-week NiP mix.
	if err := env.Run(week); err != nil {
		return CaseAResult{}, err
	}
	baseline := env.Bookings.JournalBetween(SimStart, SimStart.Add(week))

	defender := NewDefender(DefaultDefenderConfig(), env.App, env.Sched, baseline)
	defender.Start()

	attackStart := env.Sched.Now()
	spinner := env.StartSpinner(envCfg)

	if err := env.Run(17 * 24 * time.Hour); err != nil {
		return CaseAResult{}, err
	}

	stats := spinner.Stats()
	capAt, capped := defender.CapApplied()
	var capDelay time.Duration
	if capped {
		capDelay = capAt.Sub(attackStart)
	}
	var lastHold time.Time
	records := env.Bookings.Journal()
	for _, r := range records {
		if r.Flight == envCfg.TargetID && r.Outcome == booking.OutcomeAccepted &&
			len(r.ActorID) >= 6 && r.ActorID[:6] == "spin-1" {
			lastHold = r.Time
		}
	}
	attackRecords := make([]booking.Record, 0, len(records))
	for _, r := range records {
		if len(r.ActorID) >= 6 && r.ActorID[:6] == "spin-1" {
			attackRecords = append(attackRecords, r)
		}
	}

	// Replay the request stream through the online monitor: every hold
	// arrives through a rotating residential exit, so each burned
	// fingerprint crosses the distinct-IP threshold within a handful of
	// requests — the live tell the incident's defender lacked.
	monitor := detect.NewStreamMonitor(detect.StreamConfig{})
	actorOf := make(map[string]string)
	for _, r := range env.App.Log().Requests() {
		key := detect.IdentityKey(r)
		if _, seen := actorOf[key]; !seen {
			actorOf[key] = r.ActorID
		}
		monitor.Observe(r)
	}
	var spinFlagged, humanFlagged int
	for _, key := range monitor.FlaggedKeys() {
		if actor := actorOf[key]; len(actor) >= 6 && actor[:6] == "spin-1" {
			spinFlagged++
		} else {
			humanFlagged++
		}
	}

	return CaseAResult{
		MeanRotationInterval: stats.MeanRotationInterval(),
		Rotations:            len(stats.Rotations),
		RulesAdded:           defender.RulesAdded(),
		CapApplied:           capped,
		CapDelay:             capDelay,
		AttackerFinalNiP:     spinner.CurrentNiP(),
		AttackerHolds:        stats.Holds,
		AttackStopped:        spinner.Stopped(),
		LastAttackHold:       lastHold,
		Departure:            envCfg.TargetDep,
		SeatHoursLost:        booking.SeatHours(attackRecords, envCfg.TargetID, envCfg.Booking.HoldTTL),
		PrintsFlaggedOnline:  spinFlagged,
		HumansFlaggedOnline:  humanFlagged,
	}, nil
}
