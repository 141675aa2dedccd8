package attack

import (
	"errors"
	"strconv"
	"time"

	"funabuse/internal/app"
	"funabuse/internal/booking"
	"funabuse/internal/fingerprint"
	"funabuse/internal/names"
	"funabuse/internal/proxy"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
	"funabuse/internal/weblog"
)

// ManualSpinnerConfig parameterises a human seat-spinning operation
// (Airline C): a person (or small group) repeatedly holding seats with a
// fixed set of passenger names permuted across bookings, occasional typos
// from hand entry, a broad range of exit IPs, and fully organic browser
// fingerprints — nothing for bot detection to key on.
type ManualSpinnerConfig struct {
	ID     string
	Flight booking.FlightID
	// PartySize is how many passengers per booking.
	PartySize int
	// MeanGap is the mean time between booking attempts; manual operators
	// work at minutes-scale, not seconds-scale.
	MeanGap time.Duration
	// TypoRate is the probability a name is hand-mistyped on entry.
	TypoRate float64
	// Until stops the activity at this instant.
	Until time.Time
}

const (
	// manualPoolSize is the fixed passenger-name set size.
	manualPoolSize = 6
	// manualDevices is how many distinct (organic) browser fingerprints
	// the operation uses.
	manualDevices = 2
)

// ManualSpinner is the human DoI attacker.
type ManualSpinner struct {
	cfg     ManualSpinnerConfig
	api     app.ReservationAPI
	sched   *simclock.Scheduler
	rng     *simrand.RNG
	session *proxy.Session
	pool    *names.Pool
	devices []fingerprint.Fingerprint

	holds   int
	rejects int
	stopped bool
}

// NewManualSpinner builds the attacker. Fingerprints are drawn from the
// organic population: a human's real devices.
func NewManualSpinner(
	cfg ManualSpinnerConfig,
	api app.ReservationAPI,
	sched *simclock.Scheduler,
	rng *simrand.RNG,
	session *proxy.Session,
) *ManualSpinner {
	if cfg.PartySize < 1 {
		cfg.PartySize = 2
	}
	if cfg.MeanGap <= 0 {
		cfg.MeanGap = 12 * time.Minute
	}
	gen := fingerprint.NewGenerator(rng.Derive("devices"))
	devices := make([]fingerprint.Fingerprint, manualDevices)
	for i := range devices {
		devices[i] = gen.Organic()
	}
	return &ManualSpinner{
		cfg:     cfg,
		api:     api,
		sched:   sched,
		rng:     rng,
		session: session,
		pool:    names.NewPool(rng.Derive("pool"), manualPoolSize),
		devices: devices,
	}
}

// Holds returns how many holds succeeded.
func (m *ManualSpinner) Holds() int { return m.holds }

// Rejects returns how many attempts any defence layer rejected.
func (m *ManualSpinner) Rejects() int { return m.rejects }

// Start schedules the first booking attempt.
func (m *ManualSpinner) Start() {
	m.sched.ScheduleAfter(m.nextGap(), m.attempt)
}

func (m *ManualSpinner) nextGap() time.Duration {
	return time.Duration(m.rng.Exp(float64(m.cfg.MeanGap)))
}

func (m *ManualSpinner) attempt(now time.Time) {
	if m.stopped || !now.Before(m.cfg.Until) {
		m.stopped = true
		return
	}
	party := m.pool.Permuted(m.cfg.PartySize)
	for i := range party {
		if m.rng.Bool(m.cfg.TypoRate) {
			party[i] = names.Misspell(m.rng, party[i])
		}
	}
	// A human operator works in sittings: one browser session (cookie and
	// device) per a few-hour block, not a fresh identity per booking.
	sitting := strconv.Itoa(now.Hour() / 3)
	ctx := app.ClientContext{
		IP:          m.session.Addr(),
		Fingerprint: m.devices[(now.Hour()/3)%len(m.devices)],
		ClientKey:   m.cfg.ID + "-s" + sitting,
		Cookie:      m.cfg.ID + "-s" + sitting,
		Actor:       weblog.ActorManualSpinner,
		ActorID:     m.cfg.ID,
	}
	_, err := m.api.RequestHold(ctx, booking.HoldRequest{
		Flight:     m.cfg.Flight,
		Passengers: party,
		ActorID:    ctx.ClientKey,
	})
	switch {
	case err == nil:
		m.holds++
	case errors.Is(err, booking.ErrFlightDeparted):
		m.stopped = true
		return
	default:
		m.rejects++
		// A human shrugs and tries again later regardless of the error.
	}
	m.sched.Schedule(now.Add(m.nextGap()), m.attempt)
}
