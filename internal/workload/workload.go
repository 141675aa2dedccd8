// Package workload generates the legitimate-user traffic the attacks hide
// in: booking journeys whose Number-in-Party mix matches the paper's
// "average week" baseline (Fig. 1), diurnal arrival rates, and the organic
// SMS traffic (OTP logins, own-number boarding passes) that forms the
// baseline for the Table I surge computation.
package workload

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

// DefaultNiPWeights is the Fig. 1 "average week" party-size mix: bookings
// are dominated by singles and couples, with a thin tail of groups.
// Index i is the weight of party size i+1; sizes 7..9 share the last mass.
// Every population draws its party sizes from it.
var DefaultNiPWeights = []float64{0.52, 0.30, 0.08, 0.05, 0.02, 0.015, 0.008, 0.004, 0.003}

// Market weights approximate where the simulated airline's customers live,
// matching the ordinary-traffic countries of Table I plus core markets.
var defaultMarkets = []string{"GB", "FR", "DE", "ES", "IT", "SG", "CN", "TH", "US", "AU"}
var defaultMarketWeights = []float64{0.16, 0.14, 0.12, 0.09, 0.08, 0.09, 0.10, 0.08, 0.09, 0.05}

// Config parameterises the legitimate population.
type Config struct {
	// HoldsPerHour is the mean rate of booking journeys at daytime peak.
	HoldsPerHour float64
	// ConfirmProb is the share of holds that complete payment.
	ConfirmProb float64
	// BoardingPassProb is the share of confirmed tickets whose holder
	// requests the boarding pass by SMS (to their own number).
	BoardingPassProb float64
	// OTPPerHour is the mean rate of OTP login requests at daytime peak.
	OTPPerHour float64
	// TailMarketShare is the probability a visitor's home market is drawn
	// uniformly from the registry's ordinary-rate countries instead of the
	// core markets. It gives long-tail destinations the small-but-nonzero
	// SMS baselines the Table I surge ratios are computed against.
	// High-cost destinations are excluded: the paper notes the pumped
	// countries had "no significant correlation" with the airline's
	// market, i.e. essentially no organic traffic.
	TailMarketShare float64
	// Flights is the flight set journeys book on.
	Flights []booking.FlightID
	// Until stops traffic generation.
	Until time.Time
}

// DefaultConfig returns an Airline-A-scale population.
func DefaultConfig(flights []booking.FlightID, until time.Time) Config {
	return Config{
		HoldsPerHour:     80,
		ConfirmProb:      0.55,
		BoardingPassProb: 0.35,
		OTPPerHour:       40,
		TailMarketShare:  0.03,
		Flights:          flights,
		Until:            until,
	}
}

// Population drives legitimate traffic through the application APIs.
type Population struct {
	cfg   Config
	resv  app.ReservationAPI
	smsa  app.SMSAPI
	brws  app.BrowseAPI
	sched *simclock.Scheduler
	rng   *simrand.RNG

	registry  *geo.Registry
	fpGen     *fingerprint.Generator
	idGen     *names.Generator
	nipChoice *simrand.Categorical
	market    *simrand.Categorical
	tailCodes []string
	pools     map[string]*proxy.Pool

	userSeq  int
	holds    int
	friction int // legitimate requests rejected by defences
}

// NewPopulation builds the generator. Any of the API surfaces may be nil if
// the scenario does not exercise them.
func NewPopulation(
	cfg Config,
	resv app.ReservationAPI,
	smsAPI app.SMSAPI,
	browse app.BrowseAPI,
	sched *simclock.Scheduler,
	rng *simrand.RNG,
	registry *geo.Registry,
) *Population {
	if cfg.HoldsPerHour <= 0 {
		cfg.HoldsPerHour = 80
	}
	var tailCodes []string
	for _, c := range registry.All() {
		if !c.HighCost() {
			tailCodes = append(tailCodes, c.Code)
		}
	}
	return &Population{
		cfg:       cfg,
		resv:      resv,
		smsa:      smsAPI,
		brws:      browse,
		sched:     sched,
		rng:       rng,
		registry:  registry,
		fpGen:     fingerprint.NewGenerator(rng.Derive("fp")),
		idGen:     names.NewGenerator(rng.Derive("id")),
		nipChoice: simrand.NewCategorical(DefaultNiPWeights),
		market:    simrand.NewCategorical(defaultMarketWeights),
		tailCodes: tailCodes,
		pools:     make(map[string]*proxy.Pool),
	}
}

// Holds returns successful legitimate holds.
func (p *Population) Holds() int { return p.holds }

// Friction returns legitimate requests rejected by the defence stack — the
// usability cost the paper's Section V weighs.
func (p *Population) Friction() int { return p.friction }

// Start schedules hourly arrival batches until cfg.Until.
func (p *Population) Start() {
	p.scheduleHour(p.sched.Now())
}

// diurnal scales the peak rate by hour of day: quiet nights, busy days.
func diurnal(hour int) float64 {
	switch {
	case hour < 6:
		return 0.15
	case hour < 9:
		return 0.7
	case hour < 18:
		return 1.0
	case hour < 22:
		return 0.8
	default:
		return 0.3
	}
}

func (p *Population) scheduleHour(hourStart time.Time) {
	if !hourStart.Before(p.cfg.Until) {
		return
	}
	if p.resv != nil {
		n := p.rng.Poisson(p.cfg.HoldsPerHour * diurnal(hourStart.Hour()))
		for range n {
			offset := time.Duration(p.rng.Float64() * float64(time.Hour))
			p.sched.Schedule(hourStart.Add(offset), p.journey)
		}
	}
	if p.smsa != nil && p.cfg.OTPPerHour > 0 {
		n := p.rng.Poisson(p.cfg.OTPPerHour * diurnal(hourStart.Hour()))
		for range n {
			offset := time.Duration(p.rng.Float64() * float64(time.Hour))
			p.sched.Schedule(hourStart.Add(offset), p.otpLogin)
		}
	}
	p.sched.Schedule(hourStart.Add(time.Hour), func(now time.Time) {
		p.scheduleHour(now)
	})
}

// user materialises one visitor: identity, device, home market, address.
type user struct {
	ctx   app.ClientContext
	phone geo.MSISDN
}

func (p *Population) newUser() user {
	p.userSeq++
	var code string
	if p.rng.Bool(p.cfg.TailMarketShare) {
		code = simrand.Pick(p.rng, p.tailCodes)
	} else {
		code = defaultMarkets[p.market.Draw(p.rng)]
	}
	country := p.registry.MustLookup(code)
	pool, ok := p.pools[code]
	if !ok {
		pool = proxy.NewPool(p.rng.Derive("isp-"+code), code, 4096)
		p.pools[code] = pool
	}
	// One id string serves as client key, cookie and ground-truth actor id;
	// building it once keeps user creation at a single id allocation.
	seq := strconv.Itoa(p.userSeq)
	id := "user-" + seq
	return user{
		ctx: app.ClientContext{
			IP:          pool.Draw(),
			Fingerprint: p.fpGen.Organic(),
			ClientKey:   id,
			Cookie:      id,
			Actor:       weblog.ActorHuman,
			ActorID:     id,
		},
		phone: geo.PlanFor(country).Random(p.rng.Derive("phone-" + seq)),
	}
}

// journey is one browse→hold(→confirm→boarding pass) flow.
func (p *Population) journey(now time.Time) {
	if !now.Before(p.cfg.Until) || len(p.cfg.Flights) == 0 {
		return
	}
	u := p.newUser()
	if p.brws != nil {
		// A couple of browse hits before booking.
		for i := range 2 + p.rng.Intn(4) {
			at := now.Add(time.Duration(i*15+p.rng.Intn(20)) * time.Second)
			p.sched.Schedule(at, func(time.Time) {
				_, _ = p.brws.Get(u.ctx, "/search/results/page"+strconv.Itoa(p.rng.Intn(5)))
			})
		}
	}
	nip := p.nipChoice.Draw(p.rng) + 1
	flight := simrand.Pick(p.rng, p.cfg.Flights)
	holdAt := now.Add(time.Duration(60+p.rng.Intn(180)) * time.Second)
	p.sched.Schedule(holdAt, func(at time.Time) {
		if !at.Before(p.cfg.Until) {
			return
		}
		party := make([]names.Identity, nip)
		for i := range party {
			party[i] = p.idGen.Realistic()
		}
		hold, err := p.resv.RequestHold(u.ctx, booking.HoldRequest{
			Flight:     flight,
			Passengers: party,
			ActorID:    u.ctx.ClientKey,
		})
		// Legitimate group bookings adapt to a party-size cap by splitting:
		// the lead rebooks at the largest admitted size (the Fig. 1 rise in
		// four-passenger reservations after the mitigation).
		for errors.Is(err, booking.ErrNiPCapExceeded) && len(party) > 1 {
			party = party[:len(party)-1]
			hold, err = p.resv.RequestHold(u.ctx, booking.HoldRequest{
				Flight:     flight,
				Passengers: party,
				ActorID:    u.ctx.ClientKey,
			})
		}
		if err != nil {
			p.friction++
			return
		}
		p.holds++
		if !p.rng.Bool(p.cfg.ConfirmProb) {
			return // abandoned cart; the hold expires naturally
		}
		confirmAt := at.Add(time.Duration(2+p.rng.Intn(10)) * time.Minute)
		p.sched.Schedule(confirmAt, func(time.Time) {
			ticket, err := p.resv.Confirm(u.ctx, hold.ID)
			if err != nil {
				p.friction++
				return
			}
			if p.smsa != nil && p.rng.Bool(p.cfg.BoardingPassProb) {
				bpAt := confirmAt.Add(time.Duration(1+p.rng.Intn(12)) * time.Hour)
				p.sched.Schedule(bpAt, func(time.Time) {
					if err := p.smsa.SendBoardingPass(u.ctx, ticket.RecordLocator, u.phone); err != nil {
						p.friction++
					}
				})
			}
		})
	})
}

// otpLogin is one OTP-protected login from a legitimate user.
func (p *Population) otpLogin(now time.Time) {
	if !now.Before(p.cfg.Until) {
		return
	}
	u := p.newUser()
	if err := p.smsa.RequestOTP(u.ctx, u.phone, u.ctx.ClientKey); err != nil {
		p.friction++
	}
}
