// Package sms is the SMS-delivery substrate exploited by SMS Pumping.
//
// It models the full money flow the paper describes: the application owner
// pays a per-message termination price that depends on the destination
// country (and on whether the number sits in a premium range); colluding
// terminating operators kick a revenue share back to the fraudster; and the
// application has a contracted quota whose exhaustion locks out legitimate
// users — the collateral damage Section II-B highlights.
//
// Two application services sit on top of the raw gateway: an OTP service
// (the classic pumping target) and a boarding-pass-by-SMS service (the
// advanced Airline D target, reachable only with a valid record locator).
package sms

import (
	"errors"
	"fmt"
	"time"

	"funabuse/internal/geo"
	"funabuse/internal/simclock"
)

// Sentinel errors callers match on.
var (
	ErrUnknownDestination = errors.New("sms: destination country unknown")
	ErrQuotaExceeded      = errors.New("sms: contracted SMS quota exceeded")
	ErrUnknownLocator     = errors.New("sms: unknown record locator")
)

// Kind classifies a message by the application feature that produced it.
type Kind int

// Message kinds.
const (
	KindOTP Kind = iota + 1
	KindBoardingPass
	KindNotification
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindOTP:
		return "otp"
	case KindBoardingPass:
		return "boarding-pass"
	case KindNotification:
		return "notification"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is one delivered SMS.
type Message struct {
	To      geo.MSISDN
	Country string // ISO code of the destination
	Kind    Kind
	SentAt  time.Time
	CostUSD float64
	Premium bool
	// Ref ties the message to its application object (record locator,
	// login name, ...).
	Ref string
	// ActorID is ground truth for evaluation; detectors never read it.
	ActorID string
}

// Gateway delivers messages and keeps the billing ledger.
type Gateway struct {
	clock    simclock.Clock
	registry *geo.Registry

	journal []Message
	// quota is the contracted message budget; 0 means uncapped.
	quota int
	sent  int
	// fraudRevenue accrues the revenue-share kickback on messages whose
	// destination has colluding terminating operators.
	fraudRevenue float64
}

// GatewayOption configures a Gateway.
type GatewayOption func(*Gateway)

// WithQuota caps total deliveries at n messages (the contracted volume).
func WithQuota(n int) GatewayOption {
	return func(g *Gateway) { g.quota = n }
}

// NewGateway returns a Gateway resolving destinations through registry.
func NewGateway(clock simclock.Clock, registry *geo.Registry, opts ...GatewayOption) *Gateway {
	g := &Gateway{clock: clock, registry: registry}
	for _, opt := range opts {
		opt(g)
	}
	return g
}

// Send delivers one message, billing the application owner. It returns the
// delivered message for inspection.
func (g *Gateway) Send(to geo.MSISDN, kind Kind, ref, actorID string) (Message, error) {
	country, ok := g.registry.CountryOf(to)
	if !ok {
		return Message{}, ErrUnknownDestination
	}
	if g.quota > 0 && g.sent >= g.quota {
		return Message{}, ErrQuotaExceeded
	}
	premium := geo.PlanFor(country).IsPremium(to)
	cost := country.TerminationUSD
	if premium {
		cost = country.PremiumUSD
	}
	m := Message{
		To:      to,
		Country: country.Code,
		Kind:    kind,
		SentAt:  g.clock.Now(),
		CostUSD: cost,
		Premium: premium,
		Ref:     ref,
		ActorID: actorID,
	}
	g.journal = append(g.journal, m)
	g.sent++
	g.fraudRevenue += cost * country.RevenueShare
	return m, nil
}

// Sent returns the number of delivered messages.
func (g *Gateway) Sent() int { return g.sent }

// FraudRevenueUSD returns the cumulative revenue-share kickback accrued on
// all traffic. Per-actor revenue is computed from the journal.
func (g *Gateway) FraudRevenueUSD() float64 { return g.fraudRevenue }

// Journal returns a copy of the delivery journal.
func (g *Gateway) Journal() []Message {
	out := make([]Message, len(g.journal))
	copy(out, g.journal)
	return out
}

// JournalBetween returns messages with from <= SentAt < to.
func (g *Gateway) JournalBetween(from, to time.Time) []Message {
	var out []Message
	for _, m := range g.journal {
		if !m.SentAt.Before(from) && m.SentAt.Before(to) {
			out = append(out, m)
		}
	}
	return out
}

// CostFor sums the application's billed cost over messages sent by actorID.
func (g *Gateway) CostFor(actorID string) float64 {
	var total float64
	for _, m := range g.journal {
		if m.ActorID == actorID {
			total += m.CostUSD
		}
	}
	return total
}

// RevenueFor sums the revenue-share kickback over messages sent by actorID.
func (g *Gateway) RevenueFor(actorID string) float64 {
	var total float64
	for _, m := range g.journal {
		if m.ActorID != actorID {
			continue
		}
		c, ok := g.registry.Lookup(m.Country)
		if !ok {
			continue
		}
		total += m.CostUSD * c.RevenueShare
	}
	return total
}

// OTPService is the login one-time-password feature: anyone can trigger an
// SMS to an arbitrary number, which is what makes it the classic pumping
// target.
type OTPService struct {
	gateway *Gateway
}

// NewOTPService returns an OTP service on gateway.
func NewOTPService(gateway *Gateway) *OTPService {
	return &OTPService{gateway: gateway}
}

// Request sends an OTP to the number for the given login.
func (s *OTPService) Request(to geo.MSISDN, login, actorID string) (Message, error) {
	return s.gateway.Send(to, KindOTP, login, actorID)
}

// TicketResolver resolves record locators to their validity; satisfied by
// *booking.System.
type TicketResolver interface {
	// TicketExists reports whether the record locator identifies a ticket.
	TicketExists(locator string) bool
}

// BoardingPassService is the post-payment feature abused in the Airline D
// case study: a valid record locator entitles the holder to receive the
// boarding pass via SMS — and, absent per-booking rate limits, to receive
// it an unbounded number of times to arbitrary numbers.
type BoardingPassService struct {
	gateway *Gateway
	tickets TicketResolver
}

// NewBoardingPassService returns a boarding-pass service.
func NewBoardingPassService(gateway *Gateway, tickets TicketResolver) *BoardingPassService {
	return &BoardingPassService{gateway: gateway, tickets: tickets}
}

// Send delivers the boarding pass for locator to the number.
func (s *BoardingPassService) Send(locator string, to geo.MSISDN, actorID string) (Message, error) {
	if !s.tickets.TicketExists(locator) {
		return Message{}, ErrUnknownLocator
	}
	return s.gateway.Send(to, KindBoardingPass, locator, actorID)
}
