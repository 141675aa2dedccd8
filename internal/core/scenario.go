package core

import (
	"strconv"
	"time"

	"funabuse/internal/booking"
	"funabuse/internal/geo"
	"funabuse/internal/proxy"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
	"funabuse/internal/sms"
)

// geoDefault returns the shared country registry (a function so experiment
// files can reference it without importing geo directly everywhere).
func geoDefault() *geo.Registry { return geo.Default() }

// SimStart is the canonical scenario epoch: a Monday, so week windows align
// with calendar weeks.
var SimStart = time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)

// Env bundles one scenario's substrates, defended application and drivers.
type Env struct {
	Seed     uint64
	Clock    *simclock.Manual
	Sched    *simclock.Scheduler
	RNG      *simrand.RNG
	Registry *geo.Registry
	Bookings *booking.System
	Decoy    *booking.System
	Gateway  *sms.Gateway
	App      *Application
	Proxies  *proxy.Service
}

// EnvConfig parameterises scenario setup.
type EnvConfig struct {
	Seed      uint64
	Defence   DefenceConfig
	Booking   booking.Config
	SMSQuota  int
	FleetSize int           // background flights for legit traffic
	FleetCap  int           // seats per background flight
	Horizon   time.Duration // flights depart after this
	TargetID  booking.FlightID
	TargetCap int
	TargetDep time.Time // zero means Horizon applies
}

// DefaultEnvConfig returns an Airline-A-scale environment.
func DefaultEnvConfig(seed uint64) EnvConfig {
	return EnvConfig{
		Seed:      seed,
		Booking:   booking.DefaultConfig(),
		FleetSize: 150,
		FleetCap:  220,
		Horizon:   60 * 24 * time.Hour,
		TargetID:  "FA100",
		TargetCap: 180,
	}
}

// NewEnv builds the scenario environment: fleet plus target flight, SMS
// gateway, proxies, defended application.
func NewEnv(cfg EnvConfig) *Env {
	clock := simclock.NewManual(SimStart)
	sched := simclock.NewScheduler(clock)
	rng := simrand.New(cfg.Seed)
	registry := geo.Default()

	bookings := booking.NewSystem(clock, rng.Derive("booking"), cfg.Booking)
	decoy := booking.NewSystem(clock, rng.Derive("decoy"), cfg.Booking)

	flights := make([]booking.Flight, 0, cfg.FleetSize+1)
	for i := range cfg.FleetSize {
		flights = append(flights, booking.Flight{
			ID:        booking.FlightID("FL" + strconv.Itoa(100+i)),
			Airline:   "A",
			Capacity:  cfg.FleetCap,
			Departure: SimStart.Add(cfg.Horizon),
		})
	}
	targetDep := cfg.TargetDep
	if targetDep.IsZero() {
		targetDep = SimStart.Add(cfg.Horizon)
	}
	if cfg.TargetID != "" {
		flights = append(flights, booking.Flight{
			ID:        cfg.TargetID,
			Airline:   "A",
			Capacity:  cfg.TargetCap,
			Departure: targetDep,
		})
	}
	for _, f := range flights {
		bookings.AddFlight(f)
		decoy.AddFlight(f)
	}

	var gwOpts []sms.GatewayOption
	if cfg.SMSQuota > 0 {
		gwOpts = append(gwOpts, sms.WithQuota(cfg.SMSQuota))
	}
	gateway := sms.NewGateway(clock, registry, gwOpts...)

	return &Env{
		Seed:     cfg.Seed,
		Clock:    clock,
		Sched:    sched,
		RNG:      rng,
		Registry: registry,
		Bookings: bookings,
		Decoy:    decoy,
		Gateway:  gateway,
		App:      NewApplication(clock, rng.Derive("app"), cfg.Defence, bookings, decoy, gateway),
		Proxies:  proxy.NewService(rng.Derive("proxies")),
	}
}

// FleetIDs returns the background-flight IDs (excluding the target).
func (e *Env) FleetIDs(cfg EnvConfig) []booking.FlightID {
	out := make([]booking.FlightID, 0, cfg.FleetSize)
	for i := range cfg.FleetSize {
		out = append(out, booking.FlightID("FL"+strconv.Itoa(100+i)))
	}
	return out
}

// Run advances the simulation to the given offset from SimStart.
func (e *Env) Run(offset time.Duration) error {
	return e.Sched.RunUntil(SimStart.Add(offset))
}
