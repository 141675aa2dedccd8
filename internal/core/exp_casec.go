package core

import (
	"fmt"
	"io"
	"time"

	"funabuse/internal/metrics"
	"funabuse/internal/runner"
	"funabuse/internal/weblog"
)

// CaseCVariant is one defence posture in the rate-limit-key ablation.
type CaseCVariant struct {
	Name string
	// Detected reports whether any rate limit fired on the SMS path.
	Detected bool
	// DetectionDelay is the time from attack start to the first 429 on the
	// boarding-pass path.
	DetectionDelay time.Duration
	// PumpDelivered is how many pump messages reached the gateway.
	PumpDelivered int
	// PumpCostUSD is what the attack cost the application owner.
	PumpCostUSD float64
	// LegitFriction counts legitimate SMS requests rejected by the limit.
	LegitFriction int
}

// CaseCResult reproduces the Airline D detection story: with no per-profile
// or per-locator limits, the path-level limit is the only tripwire and
// fires late; a per-locator limit bounds the damage to a trickle.
type CaseCResult struct {
	Variants []CaseCVariant
}

// Table renders the ablation.
func (r CaseCResult) Table() *metrics.Table {
	t := metrics.NewTable("Case C — SMS rate-limit key ablation (one pump week)",
		"Defence", "Detected", "Detection delay", "Pump msgs delivered", "Owner cost", "Legit friction")
	for _, v := range r.Variants {
		delay := "-"
		if v.Detected {
			delay = v.DetectionDelay.Round(time.Hour).String()
		}
		t.AddRow(v.Name, fmt.Sprintf("%v", v.Detected), delay,
			fmt.Sprintf("%d", v.PumpDelivered),
			fmt.Sprintf("$%.0f", v.PumpCostUSD),
			fmt.Sprintf("%d", v.LegitFriction))
	}
	return t
}

// report writes the table.
func (r CaseCResult) report(w io.Writer, csv bool) {
	emit(w, r.Table(), csv)
}

// sample flattens the headline scalars for a replicate sweep.
func (r CaseCResult) sample() runner.Sample {
	var b sample
	for _, v := range r.Variants {
		b.addBool(v.Name+"/detected", v.Detected)
		b.add(v.Name+"/detection_delay_hours", v.DetectionDelay.Hours())
		b.addInt(v.Name+"/pump_delivered", v.PumpDelivered)
		b.add(v.Name+"/owner_cost_usd", v.PumpCostUSD)
		b.addInt(v.Name+"/legit_friction", v.LegitFriction)
	}
	return b.s
}

// caseCDefences returns the ablation postures. The path limit is set just
// above the organic daily boarding-pass volume, mirroring how such blunt
// limits are provisioned; the per-locator and per-profile limits reflect
// plausible per-user allowances.
func caseCDefences() []struct {
	Name    string
	Defence DefenceConfig
} {
	const day = 24 * time.Hour
	return []struct {
		Name    string
		Defence DefenceConfig
	}{
		{Name: "none (pre-incident)", Defence: DefenceConfig{}},
		{Name: "path limit only (paper posture)", Defence: DefenceConfig{
			SMSPathLimit: 700, SMSPathWindow: day,
		}},
		{Name: "per-locator limit", Defence: DefenceConfig{
			SMSPerLocatorLimit: 3, SMSPerLocatorWindow: day,
		}},
		{Name: "per-profile limit", Defence: DefenceConfig{
			SMSPerProfileLimit: 5, SMSPerProfileWindow: day,
		}},
		{Name: "path + per-locator", Defence: DefenceConfig{
			SMSPathLimit: 700, SMSPathWindow: day,
			SMSPerLocatorLimit: 3, SMSPerLocatorWindow: day,
		}},
	}
}

// RunCaseC runs the pump scenario under each defence posture. The pump is
// configured more aggressively than in Table I (shorter send interval) to
// match the paper's framing of a high-volume campaign racing the tripwire.
func RunCaseC(seed uint64) (CaseCResult, error) {
	var res CaseCResult
	for _, variant := range caseCDefences() {
		env, pumper, err := runPumpScenario(seed, variant.Defence, 2*time.Minute)
		if err != nil {
			return CaseCResult{}, err
		}
		attackStart := SimStart.Add(7 * 24 * time.Hour)

		v := CaseCVariant{Name: variant.Name, PumpDelivered: pumper.Sent()}
		v.PumpCostUSD = env.Gateway.CostFor(pumpActorID)
		// First 429 on the boarding-pass path after attack start marks
		// detection.
		for _, r := range env.App.Log().Requests() {
			if r.Path == "/checkin/boardingpass/sms" && r.Status == 429 && !r.Time.Before(attackStart) {
				v.Detected = true
				v.DetectionDelay = r.Time.Sub(attackStart)
				break
			}
		}
		// Legitimate friction: humans denied on the SMS surfaces.
		for _, r := range env.App.Log().Requests() {
			if r.Actor == weblog.ActorHuman && r.Status == 429 {
				v.LegitFriction++
			}
		}
		res.Variants = append(res.Variants, v)
	}
	return res, nil
}
