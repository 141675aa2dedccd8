// Package booking is the airline reservation substrate targeted by the
// Denial of Inventory / Seat Spinning attacks.
//
// It implements the exploited feature faithfully: selecting seats creates a
// temporary hold — no payment — that blocks inventory for a configurable
// duration (the paper reports 30 minutes to several hours depending on the
// domain) before expiring back into stock. Attackers re-issue holds as each
// one expires; legitimate buyers confirm holds into tickets.
//
// Every hold attempt, successful or not, is journalled with its
// Number in Party (NiP), ground-truth actor and outcome, which is the raw
// material for the paper's Fig. 1 and the anomaly detectors.
package booking

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"funabuse/internal/names"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

// Sentinel errors callers match on.
var (
	ErrFlightNotFound    = errors.New("booking: flight not found")
	ErrFlightDeparted    = errors.New("booking: flight already departed")
	ErrNiPCapExceeded    = errors.New("booking: party size exceeds reservation cap")
	ErrNiPInvalid        = errors.New("booking: party size must be at least 1")
	ErrInsufficientStock = errors.New("booking: not enough seats available")
	ErrHoldNotFound      = errors.New("booking: hold not found")
)

// FlightID identifies one flight instance (number + date).
type FlightID string

// Flight is one departure with finite seat stock.
type Flight struct {
	ID        FlightID
	Airline   string
	Capacity  int
	Departure time.Time
}

// HoldID identifies a temporary reservation.
type HoldID uint64

// Outcome classifies a hold attempt in the journal.
type Outcome int

// Hold attempt outcomes.
const (
	OutcomeAccepted Outcome = iota + 1
	OutcomeRejectedCap
	OutcomeRejectedStock
	OutcomeRejectedDeparted
	OutcomeRejectedInvalid
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeAccepted:
		return "accepted"
	case OutcomeRejectedCap:
		return "rejected-cap"
	case OutcomeRejectedStock:
		return "rejected-stock"
	case OutcomeRejectedDeparted:
		return "rejected-departed"
	case OutcomeRejectedInvalid:
		return "rejected-invalid"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Hold is a live temporary reservation.
type Hold struct {
	ID         HoldID
	Flight     FlightID
	NiP        int
	Passengers []names.Identity
	CreatedAt  time.Time
	ExpiresAt  time.Time
	// ActorID tags the originating simulated actor for evaluation.
	ActorID string
}

// Record is one journalled hold attempt. Accepted records carry the
// submitted passenger identities: the paper's case study B shows passenger
// details are the decisive detection signal for Seat Spinning.
type Record struct {
	Time       time.Time
	Flight     FlightID
	NiP        int
	Outcome    Outcome
	ActorID    string
	HoldID     HoldID
	Passengers []names.Identity
}

// Ticket is a confirmed purchase with an airline record locator, the handle
// the boarding-pass (and thus SMS pumping) flow operates on.
type Ticket struct {
	RecordLocator string
	Flight        FlightID
	Passengers    []names.Identity
	IssuedAt      time.Time
}

// Config parameterises the reservation system.
type Config struct {
	// HoldTTL is how long a seat hold blocks inventory before expiring.
	HoldTTL time.Duration
	// MaxNiP is the maximum party size per reservation. The paper's
	// Airline A allowed up to 9 before the mitigation capped it at 4.
	MaxNiP int
}

// DefaultConfig mirrors the pre-attack Airline A posture.
func DefaultConfig() Config {
	return Config{HoldTTL: 30 * time.Minute, MaxNiP: 9}
}

// System is the reservation engine. It is single-threaded by design: the
// simulator drives it from one event loop (see internal/simclock).
type System struct {
	clock  simclock.Clock
	cfg    Config
	rng    *simrand.RNG
	nextID HoldID

	flights map[FlightID]*flightState
	holds   map[HoldID]*Hold
	// expiry is a time-ordered index of live holds.
	journal []Record
	tickets map[string]Ticket
}

type flightState struct {
	flight Flight
	held   int
	sold   int
}

// NewSystem returns a System reading time from clock and drawing record
// locators from rng.
func NewSystem(clock simclock.Clock, rng *simrand.RNG, cfg Config) *System {
	if cfg.HoldTTL <= 0 {
		cfg.HoldTTL = DefaultConfig().HoldTTL
	}
	if cfg.MaxNiP <= 0 {
		cfg.MaxNiP = DefaultConfig().MaxNiP
	}
	return &System{
		clock:   clock,
		cfg:     cfg,
		rng:     rng,
		flights: make(map[FlightID]*flightState),
		holds:   make(map[HoldID]*Hold),
		tickets: make(map[string]Ticket),
	}
}

// Config returns the current configuration.
func (s *System) Config() Config { return s.cfg }

// SetMaxNiP applies the party-size cap mitigation at runtime.
func (s *System) SetMaxNiP(n int) {
	if n >= 1 {
		s.cfg.MaxNiP = n
	}
}

// AddFlight registers a flight. Re-adding an existing ID resets its state.
func (s *System) AddFlight(f Flight) {
	s.flights[f.ID] = &flightState{flight: f}
}

// Flights returns all flight IDs in sorted order.
func (s *System) Flights() []FlightID {
	out := make([]FlightID, 0, len(s.flights))
	for id := range s.flights {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HoldRequest asks to block nip seats on a flight.
type HoldRequest struct {
	Flight     FlightID
	Passengers []names.Identity
	ActorID    string
}

// RequestHold attempts a temporary reservation. Expired holds are collected
// first so inventory reflects virtual time. Every attempt is journalled.
func (s *System) RequestHold(req HoldRequest) (*Hold, error) {
	now := s.clock.Now()
	s.ExpireDue(now)

	nip := len(req.Passengers)
	// passengers is the single defensive copy of the request's identities;
	// the accepted journal record, the Hold and any Ticket confirmed from it
	// all share this immutable backing array.
	record := func(out Outcome, id HoldID, passengers []names.Identity) {
		s.journal = append(s.journal, Record{
			Time: now, Flight: req.Flight, NiP: nip, Outcome: out,
			ActorID: req.ActorID, HoldID: id, Passengers: passengers,
		})
	}

	fs, ok := s.flights[req.Flight]
	if !ok {
		return nil, ErrFlightNotFound
	}
	if nip < 1 {
		record(OutcomeRejectedInvalid, 0, nil)
		return nil, ErrNiPInvalid
	}
	if !now.Before(fs.flight.Departure) {
		record(OutcomeRejectedDeparted, 0, nil)
		return nil, ErrFlightDeparted
	}
	if nip > s.cfg.MaxNiP {
		record(OutcomeRejectedCap, 0, nil)
		return nil, fmt.Errorf("%w: %d > %d", ErrNiPCapExceeded, nip, s.cfg.MaxNiP)
	}
	if fs.held+fs.sold+nip > fs.flight.Capacity {
		record(OutcomeRejectedStock, 0, nil)
		return nil, ErrInsufficientStock
	}

	s.nextID++
	passengers := append([]names.Identity(nil), req.Passengers...)
	h := &Hold{
		ID:         s.nextID,
		Flight:     req.Flight,
		NiP:        nip,
		Passengers: passengers,
		CreatedAt:  now,
		ExpiresAt:  now.Add(s.cfg.HoldTTL),
		ActorID:    req.ActorID,
	}
	fs.held += nip
	s.holds[h.ID] = h
	record(OutcomeAccepted, h.ID, passengers)
	return h, nil
}

// Confirm converts a live hold into a ticket (payment completed).
func (s *System) Confirm(id HoldID) (Ticket, error) {
	now := s.clock.Now()
	s.ExpireDue(now)
	h, ok := s.holds[id]
	if !ok {
		return Ticket{}, ErrHoldNotFound
	}
	fs := s.flights[h.Flight]
	fs.held -= h.NiP
	fs.sold += h.NiP
	delete(s.holds, id)

	t := Ticket{
		RecordLocator: s.newRecordLocator(),
		Flight:        h.Flight,
		Passengers:    h.Passengers,
		IssuedAt:      now,
	}
	s.tickets[t.RecordLocator] = t
	return t, nil
}

// ExpireDue releases every hold whose TTL elapsed at or before now and
// returns how many holds expired.
func (s *System) ExpireDue(now time.Time) int {
	var due []HoldID
	for id, h := range s.holds {
		if !h.ExpiresAt.After(now) {
			due = append(due, id)
		}
	}
	// Deterministic release order.
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, id := range due {
		h := s.holds[id]
		s.flights[h.Flight].held -= h.NiP
		delete(s.holds, id)
	}
	return len(due)
}

// HoldInfo returns a copy of a live hold.
func (s *System) HoldInfo(id HoldID) (Hold, bool) {
	h, ok := s.holds[id]
	if !ok {
		return Hold{}, false
	}
	cp := *h
	cp.Passengers = append([]names.Identity(nil), h.Passengers...)
	return cp, true
}

// LiveHolds returns the number of live holds.
func (s *System) LiveHolds() int { return len(s.holds) }

// Availability describes a flight's current inventory split.
type Availability struct {
	Capacity  int
	Held      int
	Sold      int
	Available int
}

// AvailabilityOf reports current inventory for a flight.
func (s *System) AvailabilityOf(id FlightID) (Availability, error) {
	s.ExpireDue(s.clock.Now())
	fs, ok := s.flights[id]
	if !ok {
		return Availability{}, ErrFlightNotFound
	}
	return Availability{
		Capacity:  fs.flight.Capacity,
		Held:      fs.held,
		Sold:      fs.sold,
		Available: fs.flight.Capacity - fs.held - fs.sold,
	}, nil
}

// TicketExists reports whether loc identifies an issued ticket. It
// satisfies the sms package's TicketResolver.
func (s *System) TicketExists(loc string) bool {
	_, ok := s.tickets[loc]
	return ok
}

// Tickets returns the number of issued tickets.
func (s *System) Tickets() int { return len(s.tickets) }

// Journal returns a copy of the hold-attempt journal.
func (s *System) Journal() []Record {
	out := make([]Record, len(s.journal))
	copy(out, s.journal)
	return out
}

// JournalBetween returns journal records with from <= Time < to.
func (s *System) JournalBetween(from, to time.Time) []Record {
	var out []Record
	for _, r := range s.journal {
		if !r.Time.Before(from) && r.Time.Before(to) {
			out = append(out, r)
		}
	}
	return out
}

// locatorAlphabet excludes ambiguous characters, as airline PNRs do.
const locatorAlphabet = "ABCDEFGHJKLMNPQRSTUVWXYZ23456789"

func (s *System) newRecordLocator() string {
	for {
		var b [6]byte
		for i := range b {
			b[i] = locatorAlphabet[s.rng.Intn(len(locatorAlphabet))]
		}
		loc := string(b[:])
		if _, dup := s.tickets[loc]; !dup {
			return loc
		}
	}
}

// NiPHistogram counts accepted holds per party size over a journal slice —
// the quantity plotted in the paper's Fig. 1. Buckets above maxBucket are
// folded into maxBucket (the figure folds 7+).
func NiPHistogram(records []Record, maxBucket int) map[int]int {
	if maxBucket < 1 {
		maxBucket = 9
	}
	h := make(map[int]int)
	for _, r := range records {
		if r.Outcome != OutcomeAccepted {
			continue
		}
		b := r.NiP
		if b > maxBucket {
			b = maxBucket
		}
		h[b]++
	}
	return h
}

// NiPShares normalises a histogram into per-bucket shares. Buckets run
// 1..maxBucket; missing buckets are zero.
func NiPShares(hist map[int]int, maxBucket int) []float64 {
	total := 0
	for _, n := range hist {
		total += n
	}
	out := make([]float64, maxBucket)
	if total == 0 {
		return out
	}
	for b, n := range hist {
		if b >= 1 && b <= maxBucket {
			out[b-1] = float64(n) / float64(total)
		}
	}
	return out
}

// SeatHours integrates held-seat time over the journal for one flight: the
// damage metric for DoI (how much inventory-time the attack removed from
// sale). It assumes every accepted hold ran its full TTL unless confirmed
// earlier; for the DoI experiments attackers never confirm, so this matches.
func SeatHours(records []Record, flight FlightID, ttl time.Duration) float64 {
	var total float64
	for _, r := range records {
		if r.Flight == flight && r.Outcome == OutcomeAccepted {
			total += float64(r.NiP) * ttl.Hours()
		}
	}
	return total
}

// FormatNiP renders a party-size bucket label ("1", "2", ... "7+").
func FormatNiP(bucket, maxBucket int) string {
	if bucket >= maxBucket {
		return strconv.Itoa(maxBucket) + "+"
	}
	return strconv.Itoa(bucket)
}
