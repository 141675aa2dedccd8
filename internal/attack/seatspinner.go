// Package attack implements the adversaries of the paper's case studies:
// automated Seat Spinners that hold inventory and re-hold it on expiry
// (case A), structured and manual passenger-detail abusers (case B/C), the
// boarding-pass SMS Pumper (case C/D), and a classic scraper as the
// high-volume baseline that traditional detection *does* catch.
//
// Attackers interact with the defended application only through the
// interfaces in package app and adapt to the errors they observe: a cap
// rejection makes them probe smaller party sizes, a block makes them rotate
// fingerprint and exit IP after a reaction delay calibrated to the paper's
// measured 5.3-hour average.
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

// Rotation records one block→rotation cycle for the case-A measurement.
type Rotation struct {
	// BlockedAt is when the attacker first observed the block.
	BlockedAt time.Time
	// ResumedAt is when it reappeared with a fresh identity.
	ResumedAt time.Time
}

// Interval returns the rotation reaction time.
func (r Rotation) Interval() time.Duration { return r.ResumedAt.Sub(r.BlockedAt) }

// SpinnerStats aggregates a seat spinner's activity.
type SpinnerStats struct {
	Attempts  int
	Holds     int
	Blocked   int
	Rotations []Rotation
}

// MeanRotationInterval returns the average block→resume delay.
func (s SpinnerStats) MeanRotationInterval() time.Duration {
	if len(s.Rotations) == 0 {
		return 0
	}
	var total time.Duration
	for _, r := range s.Rotations {
		total += r.Interval()
	}
	return total / time.Duration(len(s.Rotations))
}

// SeatSpinnerConfig parameterises an automated spinner.
type SeatSpinnerConfig struct {
	// ID is the attacker's stable evaluation identity.
	ID string
	// Flight is the targeted flight.
	Flight booking.FlightID
	// TargetNiP is the initial party size per reservation. The Airline A
	// attacker chose 6 — large enough to block seats fast, small enough to
	// avoid the statistically rare maximum.
	TargetNiP int
	// ReholdInterval is how often the spinner re-issues holds, learned in
	// reconnaissance to equal the hold TTL.
	ReholdInterval time.Duration
	// Departure is the flight's departure instant; the attack ends
	// stopBeforeDeparture earlier.
	Departure time.Time
	// Parallel is how many concurrent holds the spinner maintains.
	Parallel int
}

// stopBeforeDeparture is how long before departure the attack ends: the
// paper observed holding cease two days out.
const stopBeforeDeparture = 48 * time.Hour

// SeatSpinner is the automated DoI bot. Its parties are structured: a fixed
// lead name with a rotating birthdate plus overlapping pool members, the
// Airline B pattern.
type SeatSpinner struct {
	cfg     SeatSpinnerConfig
	api     app.ReservationAPI
	sched   *simclock.Scheduler
	rng     *simrand.RNG
	rotator *fingerprint.Rotator
	session *proxy.Session
	pool    *names.Pool

	nip       int
	clientSeq int
	// generation invalidates in-flight hold streams across rotations so the
	// stream count stays at cfg.Parallel.
	generation int
	stats      SpinnerStats
	stopped    bool
	// rotating guards against stacking several pending rotations when many
	// parallel attempts observe the same block.
	rotating       bool
	blockFirstSeen time.Time
}

// NewSeatSpinner builds a spinner. The rotator starts from a naive headless
// profile unless spoofing is configured by the caller.
func NewSeatSpinner(
	cfg SeatSpinnerConfig,
	api app.ReservationAPI,
	sched *simclock.Scheduler,
	rng *simrand.RNG,
	rotator *fingerprint.Rotator,
	session *proxy.Session,
) *SeatSpinner {
	if cfg.TargetNiP < 1 {
		cfg.TargetNiP = 6
	}
	if cfg.Parallel < 1 {
		cfg.Parallel = 1
	}
	if cfg.ReholdInterval <= 0 {
		cfg.ReholdInterval = 30 * time.Minute
	}
	return &SeatSpinner{
		cfg:     cfg,
		api:     api,
		sched:   sched,
		rng:     rng,
		rotator: rotator,
		session: session,
		pool:    names.NewPool(rng.Derive("pool"), 8),
		nip:     cfg.TargetNiP,
	}
}

// Stats returns the spinner's activity counters.
func (s *SeatSpinner) Stats() SpinnerStats { return s.stats }

// CurrentNiP returns the party size the spinner is currently using.
func (s *SeatSpinner) CurrentNiP() int { return s.nip }

// Stopped reports whether the attack has ceased.
func (s *SeatSpinner) Stopped() bool { return s.stopped }

// Start schedules the attack's first wave.
func (s *SeatSpinner) Start() {
	s.launchWave(s.sched.Now())
}

// launchWave starts cfg.Parallel staggered hold streams in the current
// generation.
func (s *SeatSpinner) launchWave(at time.Time) {
	gen := s.generation
	for i := range s.cfg.Parallel {
		delay := time.Duration(i) * 7 * time.Second
		s.sched.Schedule(at.Add(delay), func(now time.Time) { s.attempt(now, gen) })
	}
}

func (s *SeatSpinner) deadline() time.Time {
	return s.cfg.Departure.Add(-stopBeforeDeparture)
}

func (s *SeatSpinner) attempt(now time.Time, gen int) {
	if gen != s.generation {
		return // stream from a pre-rotation generation
	}
	if s.stopped || !now.Before(s.deadline()) {
		s.stopped = true
		return
	}
	reattempt := func(at time.Time) {
		s.sched.Schedule(at, func(t time.Time) { s.attempt(t, gen) })
	}
	ctx := s.clientContext()
	s.stats.Attempts++
	_, err := s.api.RequestHold(ctx, booking.HoldRequest{
		Flight:     s.cfg.Flight,
		Passengers: s.pool.OverlappingParty(s.nip),
		ActorID:    ctx.ClientKey,
	})
	switch {
	case err == nil:
		s.stats.Holds++
		// Re-hold the moment the current hold expires (small jitter).
		jitter := time.Duration(s.rng.Intn(30)) * time.Second
		reattempt(now.Add(s.cfg.ReholdInterval + jitter))

	case errors.Is(err, booking.ErrNiPCapExceeded):
		// Probe downward until the new cap admits us — the Fig. 1 shift
		// from NiP 6 to the capped 4.
		if s.nip > 1 {
			s.nip--
		}
		reattempt(now.Add(time.Duration(10+s.rng.Intn(50)) * time.Second))

	case errors.Is(err, booking.ErrInsufficientStock):
		// Flight is (momentarily) full; retry when holds start expiring.
		reattempt(now.Add(s.cfg.ReholdInterval / 2))

	case errors.Is(err, app.ErrBlocked):
		s.stats.Blocked++
		s.scheduleRotation(now)

	case errors.Is(err, app.ErrChallengeFailed):
		// Solver retry after a short delay.
		reattempt(now.Add(time.Duration(20+s.rng.Intn(40)) * time.Second))

	case errors.Is(err, app.ErrRateLimited):
		reattempt(now.Add(10 * time.Minute))

	case errors.Is(err, booking.ErrFlightDeparted):
		s.stopped = true

	default:
		// Unknown failure: retry conservatively.
		reattempt(now.Add(5 * time.Minute))
	}
}

// scheduleRotation arranges a fingerprint/IP/client-key rotation after the
// operator's reaction delay, collapsing concurrent block observations into
// a single rotation.
func (s *SeatSpinner) scheduleRotation(now time.Time) {
	if s.rotating {
		return
	}
	s.rotating = true
	s.blockFirstSeen = now
	delay := s.rotator.ReactionDelay()
	s.sched.Schedule(now.Add(delay), func(resume time.Time) {
		s.rotator.Rotate()
		s.session.Blocked()
		s.clientSeq++
		s.generation++
		s.rotating = false
		s.stats.Rotations = append(s.stats.Rotations, Rotation{
			BlockedAt: s.blockFirstSeen,
			ResumedAt: resume,
		})
		// Relaunch the full wave under the fresh identity; streams from the
		// old generation are invalidated.
		s.launchWave(resume)
	})
}

func (s *SeatSpinner) clientContext() app.ClientContext {
	return app.ClientContext{
		IP:          s.session.Addr(),
		Fingerprint: s.rotator.Current(),
		ClientKey:   s.cfg.ID + "-c" + strconv.Itoa(s.clientSeq),
		Actor:       weblog.ActorSeatSpinner,
		ActorID:     s.cfg.ID,
	}
}
