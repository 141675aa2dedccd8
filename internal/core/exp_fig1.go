package core

import (
	"fmt"
	"io"
	"time"

	"funabuse/internal/booking"
	"funabuse/internal/metrics"
	"funabuse/internal/runner"
	"funabuse/internal/workload"
)

// WeekNiP is one stacked bar of Fig. 1: the Number-in-Party distribution of
// accepted seat reservations over one week.
type WeekNiP struct {
	Label string
	// Shares holds buckets 1..9 (bucket 9 folds 9+).
	Shares []float64
	// Holds is the accepted-hold count in the week.
	Holds int
}

// Fig1Result reproduces Fig. 1: the NiP distribution for an average week,
// the attack week (no cap), and the week after the NiP<=4 mitigation.
type Fig1Result struct {
	Weeks []WeekNiP
	// AttackerFinalNiP is the party size the attacker converged on after
	// the cap (the paper's attackers shifted from 6 to the new limit 4).
	AttackerFinalNiP int
	// AttackerHolds is the attacker's total accepted holds.
	AttackerHolds int
}

// Table renders the result in the shape of the paper's figure.
func (r Fig1Result) Table() *metrics.Table {
	headers := []string{"NiP"}
	for _, w := range r.Weeks {
		headers = append(headers, w.Label)
	}
	t := metrics.NewTable("Fig. 1 — Number in Party distribution (share of reservations)", headers...)
	for b := 1; b <= 9; b++ {
		row := []string{booking.FormatNiP(b, 9)}
		for _, w := range r.Weeks {
			row = append(row, fmt.Sprintf("%.1f%%", w.Shares[b-1]*100))
		}
		t.AddRow(row...)
	}
	return t
}

// report writes the table and its note lines.
func (r Fig1Result) report(w io.Writer, csv bool) {
	emit(w, r.Table(), csv)
	fmt.Fprintf(w, "attacker: final NiP %d after cap, %d holds total\n",
		r.AttackerFinalNiP, r.AttackerHolds)
}

// sample flattens the headline scalars for a replicate sweep.
func (r Fig1Result) sample() runner.Sample {
	var b sample
	b.addInt("attacker_final_nip", r.AttackerFinalNiP)
	b.addInt("attacker_holds", r.AttackerHolds)
	for _, w := range r.Weeks {
		b.addInt(w.Label+"/holds", w.Holds)
		// The attack signature the figure exists to show: the NiP=6 and
		// NiP=4 shares before and after the cap.
		b.add(w.Label+"/share_nip4", w.Shares[3])
		b.add(w.Label+"/share_nip6", w.Shares[5])
	}
	return b.s
}

// RunFig1 regenerates Fig. 1. Timeline: week 1 is the average week; the
// attack (NiP=6 holds continuously re-issued on one flight) starts with
// week 2; the NiP<=4 cap is applied at the end of week 2, as the paper's
// team did; week 3 shows both attacker and legitimate groups adapting.
// Legitimate bookings peak at 60 holds an hour; the attacker runs 10 hold
// streams.
func RunFig1(seed uint64) (Fig1Result, error) {
	const week = 7 * 24 * time.Hour
	envCfg := DefaultEnvConfig(seed)
	// The target departs two days after week 3 ends so the attacker's
	// stop-48h-before-departure logic keeps it active through week 3.
	envCfg.TargetDep = SimStart.Add(3*week + 48*time.Hour)
	env := NewEnv(envCfg)

	wl := workload.DefaultConfig(env.Flights(), SimStart.Add(3*week))
	wl.HoldsPerHour = 60
	pop := workload.NewPopulation(wl, env.App, nil, nil, env.Sched, env.RNG.Derive("pop"), env.Registry)
	pop.Start()

	// Week 1: average week.
	if err := env.Run(week); err != nil {
		return Fig1Result{}, err
	}

	// Week 2: the attack begins. The operator spoofs organic fingerprints
	// and exits through residential proxies.
	spinner := env.StartSpinner()
	if err := env.Run(2 * week); err != nil {
		return Fig1Result{}, err
	}

	// Mitigation between weeks 2 and 3: cap parties at 4.
	env.Bookings.SetMaxNiP(4)
	if err := env.Run(3 * week); err != nil {
		return Fig1Result{}, err
	}

	labels := []string{"average week", "attack week", "week after NiP<=4 cap"}
	res := Fig1Result{
		AttackerFinalNiP: spinner.CurrentNiP(),
		AttackerHolds:    spinner.Stats().Holds,
	}
	for i, label := range labels {
		from := SimStart.Add(time.Duration(i) * week)
		to := from.Add(week)
		records := env.Bookings.JournalBetween(from, to)
		hist := booking.NiPHistogram(records, 9)
		holds := 0
		for _, n := range hist {
			holds += n
		}
		res.Weeks = append(res.Weeks, WeekNiP{
			Label:  label,
			Shares: booking.NiPShares(hist, 9),
			Holds:  holds,
		})
	}
	return res, nil
}
