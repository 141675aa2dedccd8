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

// HoneypotArm is one defence strategy's outcome against the same attack.
type HoneypotArm struct {
	Name string
	// RealSeatHours integrates attacker-held seat time on the real system;
	// honeypot arms absorb it in the decoy instead.
	RealSeatHours float64
	// DecoySeatHours is attacker-held time on the decoy.
	DecoySeatHours float64
	// Rotations is how many identities the attacker burned: blocking makes
	// it rotate; the decoy gives it no reason to.
	Rotations int
	// RulesAdded is the defender's rule-churn workload.
	RulesAdded int
	// AttackerHolds is the attacker's accepted holds (real + decoy).
	AttackerHolds int
	// AttackerProxySpendUSD is the attacker's proxy bill.
	AttackerProxySpendUSD float64
	// LegitHolds counts successful legitimate holds (collateral check).
	LegitHolds int
}

// HoneypotResult compares block-based defence with decoy redirection for
// the same seat-spinning campaign — the Section V economics argument: keep
// the attacker engaged in a false environment, and both the inventory
// damage and the attacker's incentive to rotate disappear.
type HoneypotResult struct {
	Arms []HoneypotArm
}

// Table renders the comparison.
func (r HoneypotResult) Table() *metrics.Table {
	t := metrics.NewTable("Honeypot economics — same attack, two defences (one week)",
		"Defence", "Real seat-hours lost", "Decoy seat-hours", "Rotations", "Rules added", "Attacker proxy spend")
	for _, a := range r.Arms {
		t.AddRow(a.Name,
			fmt.Sprintf("%.0f", a.RealSeatHours),
			fmt.Sprintf("%.0f", a.DecoySeatHours),
			fmt.Sprintf("%d", a.Rotations),
			fmt.Sprintf("%d", a.RulesAdded),
			fmt.Sprintf("$%.2f", a.AttackerProxySpendUSD))
	}
	return t
}

// report writes the table.
func (r HoneypotResult) report(w io.Writer, csv bool) {
	emit(w, r.Table(), csv)
}

// sample flattens the headline scalars for a replicate sweep.
func (r HoneypotResult) sample() runner.Sample {
	var b sample
	for _, a := range r.Arms {
		b.add(a.Name+"/real_seat_hours", a.RealSeatHours)
		b.add(a.Name+"/decoy_seat_hours", a.DecoySeatHours)
		b.addInt(a.Name+"/rotations", a.Rotations)
		b.addInt(a.Name+"/rules_added", a.RulesAdded)
		b.addInt(a.Name+"/attacker_holds", a.AttackerHolds)
		b.add(a.Name+"/attacker_proxy_spend_usd", a.AttackerProxySpendUSD)
		b.addInt(a.Name+"/legit_holds", a.LegitHolds)
	}
	return b.s
}

// RunHoneypot runs the same one-week spinning campaign under (a) a blocking
// defender and (b) a honeypot-redirecting defender.
func RunHoneypot(seed uint64) (HoneypotResult, error) {
	var res HoneypotResult
	arms := []struct {
		name     string
		honeypot bool
	}{
		{name: "block fingerprints/IPs", honeypot: false},
		{name: "redirect to decoy inventory", honeypot: true},
	}
	for _, arm := range arms {
		a, err := runHoneypotArm(seed, arm.name, arm.honeypot)
		if err != nil {
			return HoneypotResult{}, err
		}
		res.Arms = append(res.Arms, a)
	}
	return res, nil
}

func runHoneypotArm(seed uint64, name string, honeypot bool) (HoneypotArm, error) {
	envCfg := DefaultEnvConfig(seed)
	envCfg.Defence = DefenceConfig{Blocklists: true, Honeypot: honeypot}
	envCfg.TargetDep = SimStart.Add(12 * 24 * time.Hour)
	env := NewEnv(envCfg)

	flights := append(env.FleetIDs(envCfg), envCfg.TargetID)
	wl := workload.DefaultConfig(flights, SimStart.Add(9*24*time.Hour))
	wl.HoldsPerHour = 50
	pop := workload.NewPopulation(wl, env.App, nil, nil, env.Sched, env.RNG.Derive("pop"), env.Registry)
	pop.Start()

	// Short baseline (2 days) to arm the drift detector, then one week of
	// attack.
	if err := env.Run(2 * 24 * time.Hour); err != nil {
		return HoneypotArm{}, err
	}
	baseline := env.Bookings.JournalBetween(SimStart, SimStart.Add(2*24*time.Hour))

	dcfg := DefaultDefenderConfig()
	dcfg.RedirectToHoneypot = honeypot
	dcfg.NiPCapOnDrift = 0 // isolate the block-vs-decoy comparison
	defender := NewDefender(dcfg, env.App, env.Sched, baseline)
	defender.Start()

	spinner := env.StartSpinner(envCfg)

	if err := env.Run(9 * 24 * time.Hour); err != nil {
		return HoneypotArm{}, err
	}

	attackRecords := func(sys *booking.System) []booking.Record {
		var out []booking.Record
		for _, r := range sys.Journal() {
			if strings.HasPrefix(r.ActorID, "spin-1") {
				out = append(out, r)
			}
		}
		return out
	}
	stats := spinner.Stats()
	return HoneypotArm{
		Name:                  name,
		RealSeatHours:         booking.SeatHours(attackRecords(env.Bookings), envCfg.TargetID, envCfg.Booking.HoldTTL),
		DecoySeatHours:        booking.SeatHours(attackRecords(env.Decoy), envCfg.TargetID, envCfg.Booking.HoldTTL),
		Rotations:             len(stats.Rotations),
		RulesAdded:            defender.RulesAdded(),
		AttackerHolds:         stats.Holds,
		AttackerProxySpendUSD: env.Proxies.SpendUSD(),
		LegitHolds:            pop.Holds(),
	}, nil
}
