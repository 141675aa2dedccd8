package core

import (
	"fmt"
	"time"

	"funabuse/internal/attack"
	"funabuse/internal/fingerprint"
	"funabuse/internal/metrics"
	"funabuse/internal/signal"
	"funabuse/internal/sms"
	"funabuse/internal/workload"
)

// Table1Result reproduces the paper's Table I (per-country SMS surge during
// the Airline D boarding-pass pumping attack) along with the case study's
// headline statistics: ~25% global increase and a 42-country footprint.
type Table1Result struct {
	// Top10 is the ten largest per-country surges, computed offline from
	// the message journal.
	Top10 []sms.Surge
	// Top10Streaming is the same ranking recomputed online by feeding the
	// message stream through a signal.SurgeDetector one event at a time;
	// the offline and streaming paths must agree row for row.
	Top10Streaming []sms.Surge
	// GlobalIncreasePct is the overall boarding-pass volume increase.
	GlobalIncreasePct float64
	// GlobalIncreasePctStreaming is the online counterpart.
	GlobalIncreasePctStreaming float64
	// AttackCountries is how many countries the pump traffic reached.
	AttackCountries int
	// PumpMessages is the attacker's delivered message count.
	PumpMessages int
	// AppCostUSD is the bill the attack added for the application owner.
	AppCostUSD float64
	// FraudRevenueUSD is the attacker's revenue-share take.
	FraudRevenueUSD float64
}

// Table renders the result in the shape of the paper's Table I.
func (r Table1Result) Table() *metrics.Table {
	t := metrics.NewTable(
		"Table I — top 10 countries by SMS surge (before vs during attack)",
		"Country", "Before", "After", "Increase")
	for _, s := range r.Top10 {
		t.AddRow(s.Country,
			fmt.Sprintf("%d", s.Before),
			fmt.Sprintf("%d", s.After),
			metrics.FormatPct(s.IncreasePct))
	}
	return t
}

// table1PumpMix is the destination mix calibrated so the surge table takes
// the paper's shape: six high-cost destinations with 3-5 digit surges, and
// four ordinary markets (SG, GB, CN, TH) pushed into the double-digit band
// on top of their substantial organic baselines.
func table1PumpMix() []attack.WeightedCountry {
	heavy := []attack.WeightedCountry{
		{Code: "UZ", Weight: 0.200},
		{Code: "IR", Weight: 0.140},
		{Code: "KG", Weight: 0.080},
		{Code: "JO", Weight: 0.050},
		{Code: "NG", Weight: 0.045},
		{Code: "KH", Weight: 0.030},
		{Code: "SG", Weight: 0.115},
		{Code: "GB", Weight: 0.125},
		{Code: "CN", Weight: 0.095},
		{Code: "TH", Weight: 0.033},
	}
	listed := make(map[string]bool, len(heavy))
	for _, wc := range heavy {
		listed[wc.Code] = true
	}
	reg := geoDefault()
	var tailCodes []string
	for _, code := range reg.Codes() {
		// The long tail rides on ordinary-rate destinations where mobile
		// numbers are plentiful; the monetised high-cost routes are already
		// covered by the heavy list.
		if !listed[code] && !reg.MustLookup(code).HighCost() {
			tailCodes = append(tailCodes, code)
		}
	}
	out := heavy
	w := 0.087 / float64(len(tailCodes))
	for _, code := range tailCodes {
		out = append(out, attack.WeightedCountry{Code: code, Weight: w})
	}
	return out
}

// Table1Config tunes the experiment.
type Table1Config struct {
	Seed uint64
	// HoldsPerHour drives the legitimate booking (and thus boarding-pass)
	// baseline.
	HoldsPerHour float64
	// PumpInterval is the attacker's mean time between SMS requests,
	// calibrated so the pump volume lands near +25% of the weekly
	// boarding-pass baseline.
	PumpInterval time.Duration
}

// DefaultTable1Config matches the calibration in DESIGN.md.
func DefaultTable1Config(seed uint64) Table1Config {
	return Table1Config{
		Seed:         seed,
		HoldsPerHour: 100,
		PumpInterval: 11*time.Minute + 30*time.Second,
	}
}

// RunTable1 regenerates Table I: one baseline week of organic traffic, one
// attack week with the boarding-pass pumper running in the vulnerable
// posture (no SMS rate limits of any kind).
func RunTable1(cfg Table1Config) (Table1Result, error) {
	env, pumper, err := runPumpScenario(cfg.Seed, DefenceConfig{}, cfg.HoldsPerHour, cfg.PumpInterval)
	if err != nil {
		return Table1Result{}, err
	}
	const week = 7 * 24 * time.Hour
	boardingOnly := func(msgs []sms.Message) []sms.Message {
		var out []sms.Message
		for _, m := range msgs {
			if m.Kind == sms.KindBoardingPass {
				out = append(out, m)
			}
		}
		return out
	}
	before := boardingOnly(env.Gateway.JournalBetween(SimStart, SimStart.Add(week)))
	after := boardingOnly(env.Gateway.JournalBetween(SimStart.Add(week), SimStart.Add(2*week)))

	pumpMsgs := 0
	attackCountries := make(map[string]bool)
	for _, m := range after {
		if m.ActorID == pumpActorID {
			pumpMsgs++
			attackCountries[m.Country] = true
		}
	}
	_ = pumper
	streamTop, streamGlobal := streamSurges(before, after, 10)
	return Table1Result{
		Top10:                      sms.TopSurges(before, after, 10),
		Top10Streaming:             streamTop,
		GlobalIncreasePctStreaming: streamGlobal,
		GlobalIncreasePct:          sms.GlobalIncreasePct(before, after),
		AttackCountries:            len(attackCountries),
		PumpMessages:               pumpMsgs,
		AppCostUSD:                 env.Gateway.CostFor(pumpActorID),
		FraudRevenueUSD:            env.Gateway.RevenueFor(pumpActorID),
	}, nil
}

// streamSurges recomputes the Table I ranking online: the journal slices
// are replayed as a single time-ordered stream through a week-period
// signal.SurgeDetector, the way a live deployment would consume gateway
// events. The detector's floor-of-one convention and ordering match
// sms.SurgeByCountry, so the result is bit-identical to the offline path.
func streamSurges(before, after []sms.Message, n int) ([]sms.Surge, float64) {
	det := signal.NewSurgeDetector(SimStart, 7*24*time.Hour)
	for _, m := range before {
		det.Observe(m.Country, m.SentAt)
	}
	for _, m := range after {
		det.Observe(m.Country, m.SentAt)
	}
	top := det.Top(n)
	out := make([]sms.Surge, len(top))
	for i, ks := range top {
		out[i] = sms.Surge{
			Country:     ks.Key,
			Before:      ks.Before,
			After:       ks.After,
			IncreasePct: ks.IncreasePct,
		}
	}
	return out, det.GlobalIncreasePct()
}

// pumpActorID is the stable evaluation identity of the pumping campaign.
const pumpActorID = "pump-1"

// runPumpScenario builds the Airline D environment: one baseline week of
// organic traffic, then a pumping campaign during week two, under the given
// defence posture. It returns after two full weeks of virtual time.
func runPumpScenario(
	seed uint64,
	defence DefenceConfig,
	holdsPerHour float64,
	pumpInterval time.Duration,
) (*Env, *attack.SMSPumper, error) {
	const week = 7 * 24 * time.Hour
	envCfg := DefaultEnvConfig(seed)
	envCfg.Defence = defence
	envCfg.TargetID = "FD400"
	envCfg.TargetDep = SimStart.Add(40 * 24 * time.Hour)
	env := NewEnv(envCfg)

	flights := append(env.FleetIDs(envCfg), envCfg.TargetID)
	wl := workload.DefaultConfig(flights, SimStart.Add(2*week))
	wl.HoldsPerHour = holdsPerHour
	wl.ConfirmProb = 0.60
	wl.BoardingPassProb = 0.60
	wl.TailMarketShare = 0.22
	pop := workload.NewPopulation(wl, env.App, env.App, nil, env.Sched, env.RNG.Derive("pop"), env.Registry)
	pop.Start()

	if err := env.Run(week); err != nil {
		return nil, nil, err
	}

	rot := fingerprint.NewRotator(
		env.RNG.Derive("rot"),
		fingerprint.NewGenerator(env.RNG.Derive("fpgen")),
		fingerprint.WithSpoofing(),
	)
	pumper := attack.NewSMSPumper(attack.SMSPumperConfig{
		ID:              pumpActorID,
		Flight:          envCfg.TargetID,
		Tickets:         4,
		TargetCountries: table1PumpMix(),
		SendInterval:    pumpInterval,
		PremiumShare:    0.25,
		Until:           SimStart.Add(2 * week),
	}, env.App, env.App, env.Sched, env.RNG.Derive("pumper"), env.Proxies, rot, env.Registry)
	pumper.Start()

	if err := env.Run(2 * week); err != nil {
		return nil, nil, err
	}
	return env, pumper, nil
}
