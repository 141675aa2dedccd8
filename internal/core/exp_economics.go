package core

import (
	"fmt"
	"io"
	"time"

	"funabuse/internal/attack"
	"funabuse/internal/fingerprint"
	"funabuse/internal/metrics"
	"funabuse/internal/runner"
	"funabuse/internal/workload"
)

// EconRow is one point of the economic-deterrent sweep.
type EconRow struct {
	Label string
	// MessagesDelivered is the pump volume that got through.
	MessagesDelivered int
	// RevenueUSD is the attacker's revenue-share take.
	RevenueUSD float64
	// CaptchaSpendUSD is the attacker's solver bill.
	CaptchaSpendUSD float64
	// ProxySpendUSD is the attacker's proxy bill.
	ProxySpendUSD float64
	// ProfitUSD is revenue minus attacker costs.
	ProfitUSD float64
	// OwnerCostUSD is the application owner's SMS bill for pump traffic.
	OwnerCostUSD float64
	// HumanFriction counts legitimate requests broken by the mitigation.
	HumanFriction int
}

// EconResult sweeps the Section V economic deterrents: CAPTCHA solve cost
// as a per-request tax, and per-locator caps as a volume collapse. The
// paper's nuance is preserved: a CAPTCHA alone taxes but rarely bankrupts a
// high-margin pumping operation; volume caps are what starve it.
type EconResult struct {
	CaptchaSweep []EconRow
	CapSweep     []EconRow
	// BreakEvenSolveCostUSD is the analytically derived solve price at
	// which the attacker's per-message margin goes negative.
	BreakEvenSolveCostUSD float64
}

// Table renders both sweeps.
func (r EconResult) Table() *metrics.Table {
	t := metrics.NewTable("Economic deterrents — attacker P&L per 3-day campaign",
		"Mitigation", "Delivered", "Revenue", "CAPTCHA cost", "Proxy cost", "Profit", "Owner cost", "Human friction")
	row := func(e EconRow) {
		t.AddRow(e.Label,
			fmt.Sprintf("%d", e.MessagesDelivered),
			fmt.Sprintf("$%.2f", e.RevenueUSD),
			fmt.Sprintf("$%.2f", e.CaptchaSpendUSD),
			fmt.Sprintf("$%.2f", e.ProxySpendUSD),
			fmt.Sprintf("$%.2f", e.ProfitUSD),
			fmt.Sprintf("$%.2f", e.OwnerCostUSD),
			fmt.Sprintf("%d", e.HumanFriction))
	}
	for _, e := range r.CaptchaSweep {
		row(e)
	}
	for _, e := range r.CapSweep {
		row(e)
	}
	return t
}

// report writes the table and its note lines.
func (r EconResult) report(w io.Writer, csv bool) {
	emit(w, r.Table(), csv)
	fmt.Fprintf(w, "analytic break-even CAPTCHA solve cost: $%.4f/solve (market prices are ~$0.002)\n",
		r.BreakEvenSolveCostUSD)
}

// sample flattens the headline scalars for a replicate sweep.
func (r EconResult) sample() runner.Sample {
	var b sample
	b.add("break_even_solve_cost_usd", r.BreakEvenSolveCostUSD)
	rows := func(prefix string, sweep []EconRow) {
		for _, e := range sweep {
			b.addInt(prefix+e.Label+"/delivered", e.MessagesDelivered)
			b.add(prefix+e.Label+"/attacker_profit_usd", e.ProfitUSD)
			b.add(prefix+e.Label+"/owner_cost_usd", e.OwnerCostUSD)
		}
	}
	rows("captcha:", r.CaptchaSweep)
	rows("cap:", r.CapSweep)
	return b.s
}

// RunEconomics sweeps CAPTCHA solve prices and per-locator caps against the
// same pumping campaign.
func RunEconomics(seed uint64) (EconResult, error) {
	var res EconResult

	captchaCosts := []float64{0, 0.002, 0.01, 0.05}
	for _, cost := range captchaCosts {
		defence := DefenceConfig{}
		label := "no mitigation"
		if cost > 0 {
			defence = DefenceConfig{CaptchaOnSMS: true, CaptchaSolveCostUSD: cost}
			label = fmt.Sprintf("CAPTCHA @ $%.3f/solve", cost)
		}
		row, err := runEconArm(seed, label, defence)
		if err != nil {
			return EconResult{}, err
		}
		res.CaptchaSweep = append(res.CaptchaSweep, row)
	}

	caps := []int{50, 10, 2}
	for _, cap := range caps {
		defence := DefenceConfig{
			SMSPerLocatorLimit:  cap,
			SMSPerLocatorWindow: 24 * time.Hour,
		}
		row, err := runEconArm(seed, fmt.Sprintf("locator cap %d/day", cap), defence)
		if err != nil {
			return EconResult{}, err
		}
		res.CapSweep = append(res.CapSweep, row)
	}

	// Analytic break-even: the campaign's average revenue per delivered
	// message versus per-attempt costs, from the unmitigated arm.
	if len(res.CaptchaSweep) > 0 {
		base := res.CaptchaSweep[0]
		if base.MessagesDelivered > 0 {
			revPerMsg := base.RevenueUSD / float64(base.MessagesDelivered)
			proxyPerMsg := base.ProxySpendUSD / float64(base.MessagesDelivered)
			res.BreakEvenSolveCostUSD = revPerMsg - proxyPerMsg
		}
	}
	return res, nil
}

func runEconArm(seed uint64, label string, defence DefenceConfig) (EconRow, error) {
	const horizon = 3 * 24 * time.Hour
	envCfg := DefaultEnvConfig(seed)
	envCfg.Defence = defence
	envCfg.TargetID = "FD400"
	envCfg.TargetDep = SimStart.Add(30 * 24 * time.Hour)
	env := NewEnv(envCfg)

	flights := append(env.FleetIDs(envCfg), envCfg.TargetID)
	wl := workload.DefaultConfig(flights, SimStart.Add(horizon))
	wl.HoldsPerHour = 40
	pop := workload.NewPopulation(wl, env.App, env.App, nil, env.Sched, env.RNG.Derive("pop"), env.Registry)
	pop.Start()

	rot := fingerprint.NewRotator(
		env.RNG.Derive("rot"),
		fingerprint.NewGenerator(env.RNG.Derive("fpgen")),
		fingerprint.WithSpoofing(),
	)
	pumper := attack.NewSMSPumper(attack.SMSPumperConfig{
		ID:           pumpActorID,
		Flight:       envCfg.TargetID,
		Tickets:      4,
		SendInterval: 90 * time.Second,
		PremiumShare: 0.25,
		Until:        SimStart.Add(horizon),
	}, env.App, env.App, env.Sched, env.RNG.Derive("pumper"), env.Proxies, rot, env.Registry)
	pumper.Start()

	if err := env.Run(horizon); err != nil {
		return EconRow{}, err
	}

	revenue := env.Gateway.RevenueFor(pumpActorID)
	captchaSpend := env.App.Captcha().BotSpendUSD()
	proxySpend := env.Proxies.SpendUSD()
	return EconRow{
		Label:             label,
		MessagesDelivered: pumper.Sent(),
		RevenueUSD:        revenue,
		CaptchaSpendUSD:   captchaSpend,
		ProxySpendUSD:     proxySpend,
		ProfitUSD:         revenue - captchaSpend - proxySpend,
		OwnerCostUSD:      env.Gateway.CostFor(pumpActorID),
		HumanFriction:     pop.Friction(),
	}, nil
}
