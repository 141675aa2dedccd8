package attack

import (
	"errors"
	"strconv"
	"time"

	"funabuse/internal/app"
	"funabuse/internal/booking"
	"funabuse/internal/fingerprint"
	"funabuse/internal/geo"
	"funabuse/internal/names"
	"funabuse/internal/proxy"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
	"funabuse/internal/weblog"
)

// SMSPumperConfig parameterises the advanced boarding-pass pumping attack
// of the Airline D case study.
type SMSPumperConfig struct {
	ID string
	// Flight is the flight tickets are purchased on.
	Flight booking.FlightID
	// Tickets is how many e-tickets the attacker buys (with stolen cards)
	// to obtain record locators — the paper notes they issued only a few
	// and leveraged each for a high volume of SMS.
	Tickets int
	// TargetCountries lists destination ISO codes with selection weights.
	// The paper's attackers spread over 42 countries but concentrated on
	// high-payout routes.
	TargetCountries []WeightedCountry
	// SendInterval is the mean time between SMS requests.
	SendInterval time.Duration
	// PremiumShare is the fraction of numbers drawn from premium ranges.
	PremiumShare float64
	// Until ends the campaign at this instant if defences have not stopped
	// it earlier.
	Until time.Time
}

// WeightedCountry pairs a destination with its targeting weight.
type WeightedCountry struct {
	Code   string
	Weight float64
}

// DefaultTargetMix returns the case-study-C targeting mix: six high-cost
// destinations take the bulk of the traffic; the remaining registry
// countries form the long tail that brings the footprint to 42+ countries.
func DefaultTargetMix(reg *geo.Registry) []WeightedCountry {
	heavy := map[string]float64{
		"UZ": 0.34, "IR": 0.22, "KG": 0.13, "JO": 0.08, "NG": 0.07, "KH": 0.05,
	}
	var out []WeightedCountry
	var tail []string
	for _, code := range reg.Codes() {
		if w, ok := heavy[code]; ok {
			out = append(out, WeightedCountry{Code: code, Weight: w})
			continue
		}
		tail = append(tail, code)
	}
	// Remaining ~11% spread across the tail.
	if len(tail) > 0 {
		w := 0.11 / float64(len(tail))
		for _, code := range tail {
			out = append(out, WeightedCountry{Code: code, Weight: w})
		}
	}
	return out
}

// SMSPumper executes the two-phase attack: purchase tickets, then pump
// boarding-pass SMS to monetised destinations with geo-matched residential
// exits and rotating spoofed fingerprints.
type SMSPumper struct {
	cfg   SMSPumperConfig
	resv  app.ReservationAPI
	smst  app.SMSAPI
	sched *simclock.Scheduler
	rng   *simrand.RNG
	// proxies provides per-country sessions so the exit IP matches the
	// destination number's country.
	proxies  *proxy.Service
	rotator  *fingerprint.Rotator
	registry *geo.Registry
	gen      *names.Generator

	locators  []string
	countries []string
	chooser   *simrand.Categorical
	sessions  map[string]*proxy.Session

	sent        int
	attempts    int
	blocked     int
	rateLimited int
	rotations   int
	stopped     bool
	clientSeq   int
}

// NewSMSPumper builds the attacker. The rotator should be configured with
// spoofing: the case-study attackers mimicked organic fingerprints.
func NewSMSPumper(
	cfg SMSPumperConfig,
	resv app.ReservationAPI,
	smsAPI app.SMSAPI,
	sched *simclock.Scheduler,
	rng *simrand.RNG,
	proxies *proxy.Service,
	rotator *fingerprint.Rotator,
	registry *geo.Registry,
) *SMSPumper {
	if cfg.Tickets < 1 {
		cfg.Tickets = 3
	}
	if cfg.SendInterval <= 0 {
		cfg.SendInterval = 20 * time.Second
	}
	if len(cfg.TargetCountries) == 0 {
		cfg.TargetCountries = DefaultTargetMix(registry)
	}
	codes := make([]string, len(cfg.TargetCountries))
	weights := make([]float64, len(cfg.TargetCountries))
	for i, wc := range cfg.TargetCountries {
		codes[i] = wc.Code
		weights[i] = wc.Weight
	}
	return &SMSPumper{
		cfg:       cfg,
		resv:      resv,
		smst:      smsAPI,
		sched:     sched,
		rng:       rng,
		proxies:   proxies,
		rotator:   rotator,
		registry:  registry,
		gen:       names.NewGenerator(rng.Derive("identities")),
		countries: codes,
		chooser:   simrand.NewCategorical(weights),
		sessions:  make(map[string]*proxy.Session),
	}
}

// Sent returns delivered pump messages.
func (p *SMSPumper) Sent() int { return p.sent }

// Attempts returns total send attempts.
func (p *SMSPumper) Attempts() int { return p.attempts }

// Blocked returns attempts denied by block rules.
func (p *SMSPumper) Blocked() int { return p.blocked }

// RateLimited returns attempts denied by rate limits.
func (p *SMSPumper) RateLimited() int { return p.rateLimited }

// Rotations returns how many fingerprint rotations the campaign performed.
func (p *SMSPumper) Rotations() int { return p.rotations }

// Stopped reports whether the campaign has ended.
func (p *SMSPumper) Stopped() bool { return p.stopped }

// Start runs the purchase phase immediately and schedules the pump loop.
func (p *SMSPumper) Start() {
	p.sched.ScheduleAfter(time.Second, func(now time.Time) {
		p.purchase(now)
		p.sched.Schedule(now.Add(p.nextGap()), p.pump)
	})
}

// purchase buys the e-tickets (hold + confirm with a stolen card) the pump
// phase will leverage.
func (p *SMSPumper) purchase(time.Time) {
	for i := 0; len(p.locators) < p.cfg.Tickets && i < p.cfg.Tickets*4; i++ {
		ctx := p.clientContext("")
		hold, err := p.resv.RequestHold(ctx, booking.HoldRequest{
			Flight:     p.cfg.Flight,
			Passengers: []names.Identity{p.gen.Garbage()},
			ActorID:    ctx.ClientKey,
		})
		if err != nil {
			continue
		}
		ticket, err := p.resv.Confirm(ctx, hold.ID)
		if err != nil {
			continue
		}
		p.locators = append(p.locators, ticket.RecordLocator)
	}
}

func (p *SMSPumper) nextGap() time.Duration {
	return time.Duration(p.rng.Exp(float64(p.cfg.SendInterval)))
}

func (p *SMSPumper) pump(now time.Time) {
	if p.stopped || !now.Before(p.cfg.Until) || len(p.locators) == 0 {
		p.stopped = true
		return
	}
	code := p.countries[p.chooser.Draw(p.rng)]
	country, ok := p.registry.Lookup(code)
	if !ok {
		p.sched.Schedule(now.Add(p.nextGap()), p.pump)
		return
	}
	plan := geo.PlanFor(country)
	var to geo.MSISDN
	if p.rng.Bool(p.cfg.PremiumShare) {
		to = plan.RandomPremium(p.rng)
	} else {
		to = plan.Random(p.rng)
	}
	locator := p.locators[p.rng.Intn(len(p.locators))]
	ctx := p.clientContext(code)

	p.attempts++
	err := p.smst.SendBoardingPass(ctx, locator, to)
	switch {
	case err == nil:
		p.sent++
	case errors.Is(err, app.ErrBlocked):
		p.blocked++
		// Fingerprint rotation is cheap for this crew; they rotate fast and
		// keep pumping.
		p.rotator.Rotate()
		p.rotations++
		p.clientSeq++
	case errors.Is(err, app.ErrRateLimited):
		p.rateLimited++
		// Back off for a while, then probe again.
		p.sched.Schedule(now.Add(30*time.Minute), p.pump)
		return
	case errors.Is(err, app.ErrChallengeFailed):
		// Failed solve: buy another one shortly.
		p.sched.Schedule(now.Add(time.Duration(20+p.rng.Intn(40))*time.Second), p.pump)
		return
	case errors.Is(err, app.ErrRestricted):
		// Feature removed: the paper's campaign ended when the SMS option
		// was pulled. Probe occasionally in case it returns.
		p.sched.Schedule(now.Add(6*time.Hour), p.pump)
		return
	}
	p.sched.Schedule(now.Add(p.nextGap()), p.pump)
}

// clientContext builds the request context. When a destination country is
// given, the exit IP is drawn from that country's residential pool — the
// geo-matching the paper highlights.
func (p *SMSPumper) clientContext(destCountry string) app.ClientContext {
	country := destCountry
	if country == "" {
		country = "FR" // purchase phase exits from a generic market
	}
	sess, ok := p.sessions[country]
	if !ok {
		sess = p.proxies.NewSession(country, proxy.RotatePerRequest)
		p.sessions[country] = sess
	}
	return app.ClientContext{
		IP:          sess.Addr(),
		Fingerprint: p.rotator.Current(),
		ClientKey:   p.cfg.ID + "-c" + strconv.Itoa(p.clientSeq),
		Actor:       weblog.ActorSMSPumper,
		ActorID:     p.cfg.ID,
	}
}
