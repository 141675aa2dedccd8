package core

import (
	"fmt"
	"time"

	"funabuse/internal/metrics"
	"funabuse/internal/sms"
)

// CarrierArm is one settlement-policy posture evaluated on the same
// pumping campaign.
type CarrierArm struct {
	Name string
	// AttackerKickbackUSD is what reached the fraudster.
	AttackerKickbackUSD float64
	// WithheldUSD is compensation frozen by dispute.
	WithheldUSD float64
	// DeliveryRate is the share of settled messages actually delivered
	// (colluding terminators short-stop traffic).
	DeliveryRate float64
	// Settled counts messages that found an eligible terminator.
	Settled int
	// Unroutable counts messages with no eligible terminator (the
	// validation rule freezing out young secondaries).
	Unroutable int
}

// CarrierResult is the Section V operator-side mitigation study: the same
// pump traffic settled under three intercarrier-compensation policies.
// The attack only pays because the settlement chain pays; validation and
// withholding attack the money, not the traffic.
type CarrierResult struct {
	Arms []CarrierArm
	// PumpMessages is the campaign volume fed to each arm.
	PumpMessages int
}

// Table renders the comparison.
func (r CarrierResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Carrier-level mitigation — same %d-message campaign, three settlement policies", r.PumpMessages),
		"Policy", "Attacker kickback", "Withheld", "Delivery rate", "Unroutable")
	for _, a := range r.Arms {
		t.AddRow(a.Name,
			fmt.Sprintf("$%.2f", a.AttackerKickbackUSD),
			fmt.Sprintf("$%.2f", a.WithheldUSD),
			fmt.Sprintf("%.2f", a.DeliveryRate),
			fmt.Sprintf("%d", a.Unroutable))
	}
	return t
}

// RunCarrier settles one pump campaign's traffic under (a) no carrier
// controls, (b) a 30-day validation age for terminating operators — the
// attacker's secondaries registered days before the campaign — and (c)
// compensation withholding once the application disputes the traffic
// (48 h into the attack, reflecting operational dispute latency).
func RunCarrier(seed uint64) (CarrierResult, error) {
	// One pump campaign in the vulnerable posture supplies the traffic.
	env, _, err := runPumpScenario(seed, DefenceConfig{}, 11*time.Minute+30*time.Second)
	if err != nil {
		return CarrierResult{}, err
	}
	const week = 7 * 24 * time.Hour
	attackStart := SimStart.Add(week)
	var pump []sms.Message
	for _, m := range env.Gateway.Journal() {
		if m.ActorID == pumpActorID {
			pump = append(pump, m)
		}
	}

	type policy struct {
		name          string
		validationAge time.Duration
		withhold      bool
	}
	policies := []policy{
		{name: "no carrier controls"},
		{name: "30-day terminator validation", validationAge: 30 * 24 * time.Hour},
		{name: "withhold flagged traffic (48h dispute)", withhold: true},
	}

	res := CarrierResult{PumpMessages: len(pump)}
	for _, p := range policies {
		chain := sms.NewChain(env.RNG.Derive("chain-"+p.name), env.Registry)
		chain.SetValidationAge(p.validationAge)
		chain.SetWithholdFlagged(p.withhold)

		// Long-established honest terminators exist in every destination.
		for _, code := range env.Registry.Codes() {
			chain.RegisterTerminator(code, false, SimStart.AddDate(-3, 0, 0))
		}
		// The fraud ring registered colluding secondaries in its six
		// monetised destinations days before the campaign.
		for _, code := range []string{"UZ", "IR", "KG", "JO", "NG", "KH"} {
			chain.RegisterTerminator(code, true, attackStart.Add(-5*24*time.Hour))
		}

		arm := CarrierArm{Name: p.name}
		disputeAt := attackStart.Add(48 * time.Hour)
		flagged := false
		for _, m := range pump {
			if p.withhold && !flagged && !m.SentAt.Before(disputeAt) {
				chain.FlagActor(pumpActorID)
				flagged = true
			}
			if _, err := chain.Settle(m, m.SentAt); err != nil {
				arm.Unroutable++
				continue
			}
			arm.Settled++
		}
		arm.AttackerKickbackUSD = chain.KickbackTo(pumpActorID)
		arm.WithheldUSD = chain.WithheldUSD()
		arm.DeliveryRate = chain.DeliveryRate()
		res.Arms = append(res.Arms, arm)
	}
	return res, nil
}
