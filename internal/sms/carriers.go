package sms

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"funabuse/internal/geo"
	"funabuse/internal/simrand"
)

// This file models the telephony settlement chain behind SMS pumping as
// the paper's Section II-B describes it: the application owner pays an
// aggregator (primary operator); the message transits to a terminating
// operator in the destination country, which earns a termination fee under
// intercarrier-compensation rules; fraudulent secondary operators register
// as terminators, collect the fees, and kick a share back to the attacker
// generating the traffic — sometimes never delivering the message at all.
//
// The Section V mitigation is modelled too: the primary operator can
// enforce stricter validation for newly registered terminators and
// withhold compensation on traffic the application flags as abusive.

// OperatorClass distinguishes the settlement roles.
type OperatorClass int

// Operator classes.
const (
	// OperatorPrimary is the aggregator the application contracts with.
	OperatorPrimary OperatorClass = iota + 1
	// OperatorTransit forwards between networks for a small margin.
	OperatorTransit
	// OperatorTerminating delivers into the destination network and earns
	// the termination fee.
	OperatorTerminating
)

// String names the class.
func (c OperatorClass) String() string {
	switch c {
	case OperatorPrimary:
		return "primary"
	case OperatorTransit:
		return "transit"
	case OperatorTerminating:
		return "terminating"
	default:
		return fmt.Sprintf("OperatorClass(%d)", int(c))
	}
}

// Operator is one settlement participant.
type Operator struct {
	ID      string
	Class   OperatorClass
	Country string
	// Colluding marks terminators that share revenue with traffic
	// generators. Ground truth for evaluation; the settlement system
	// cannot see it directly.
	Colluding bool
	// RegisteredAt is when the operator joined the chain; fraudulent
	// terminators are characteristically young.
	RegisteredAt time.Time
}

// Settlement is the per-message money split.
type Settlement struct {
	Message Message
	// TerminatorID is the operator that claimed termination.
	TerminatorID string
	// TerminationFeeUSD is what the terminator earned.
	TerminationFeeUSD float64
	// TransitFeeUSD is the middle-mile margin.
	TransitFeeUSD float64
	// KickbackUSD is what a colluding terminator returned to the traffic
	// generator.
	KickbackUSD float64
	// Withheld marks fees frozen by the compensation-withholding
	// mitigation.
	Withheld bool
	// Delivered reports whether the message actually reached a handset;
	// colluding terminators often short-stop traffic.
	Delivered bool
}

// ErrNoTerminator is returned when a destination has no registered
// terminating operator.
var ErrNoTerminator = errors.New("sms: no terminating operator for destination")

// Chain is the settlement network: operators per destination country and
// the ledger of per-message splits.
type Chain struct {
	rng      *simrand.RNG
	registry *geo.Registry

	terminators map[string][]*Operator // country -> candidates
	operators   map[string]*Operator
	ledger      []Settlement

	// validationAge is the minimum operator age before it may claim
	// termination fees (the "stricter validation for new secondary
	// operators" mitigation); zero disables.
	validationAge time.Duration
	// withholdFlagged freezes compensation on messages the application
	// flags as abusive.
	withholdFlagged bool
	// flagged actor IDs whose traffic is disputed.
	flagged map[string]bool

	nextID int
}

// NewChain returns an empty settlement network.
func NewChain(rng *simrand.RNG, registry *geo.Registry) *Chain {
	return &Chain{
		rng:         rng,
		registry:    registry,
		terminators: make(map[string][]*Operator),
		operators:   make(map[string]*Operator),
		flagged:     make(map[string]bool),
	}
}

// SetValidationAge enables the minimum-age rule for terminators.
func (c *Chain) SetValidationAge(d time.Duration) { c.validationAge = d }

// SetWithholdFlagged toggles compensation withholding on flagged traffic.
func (c *Chain) SetWithholdFlagged(v bool) { c.withholdFlagged = v }

// FlagActor marks an actor's traffic as disputed (fed by the application's
// fraud detection).
func (c *Chain) FlagActor(actorID string) { c.flagged[actorID] = true }

// RegisterTerminator adds a terminating operator for a country and returns
// it. Colluding marks the fraudulent-secondary-operator case.
func (c *Chain) RegisterTerminator(country string, colluding bool, at time.Time) *Operator {
	c.nextID++
	op := &Operator{
		ID:           fmt.Sprintf("term-%s-%d", country, c.nextID),
		Class:        OperatorTerminating,
		Country:      country,
		Colluding:    colluding,
		RegisteredAt: at,
	}
	c.terminators[country] = append(c.terminators[country], op)
	c.operators[op.ID] = op
	return op
}

// Operator resolves an operator by ID.
func (c *Chain) Operator(id string) (*Operator, bool) {
	op, ok := c.operators[id]
	return op, ok
}

// Settle routes one delivered message through the chain at the given
// instant and records the money split. Colluding terminators win the route
// when present and eligible: the attacker steers traffic toward them.
func (c *Chain) Settle(m Message, at time.Time) (Settlement, error) {
	candidates := c.terminators[m.Country]
	var eligible []*Operator
	for _, op := range candidates {
		if c.validationAge > 0 && at.Sub(op.RegisteredAt) < c.validationAge {
			continue
		}
		eligible = append(eligible, op)
	}
	if len(eligible) == 0 {
		return Settlement{}, ErrNoTerminator
	}
	// Prefer a colluding terminator (the attacker routes numbers it
	// controls); otherwise a uniform pick.
	var term *Operator
	for _, op := range eligible {
		if op.Colluding {
			term = op
			break
		}
	}
	if term == nil {
		term = eligible[c.rng.Intn(len(eligible))]
	}

	country, ok := c.registry.Lookup(m.Country)
	if !ok {
		return Settlement{}, ErrUnknownDestination
	}
	s := Settlement{
		Message:           m,
		TerminatorID:      term.ID,
		TerminationFeeUSD: m.CostUSD * 0.75,
		TransitFeeUSD:     m.CostUSD * 0.10,
		Delivered:         true,
	}
	if term.Colluding {
		s.KickbackUSD = s.TerminationFeeUSD * kickbackShare(country)
		// Short-stopping: a colluding terminator pockets the fee without
		// delivering roughly half the time — the paper notes the number's
		// owner "may be unaware that their number is used".
		s.Delivered = !c.rng.Bool(0.5)
	}
	if c.withholdFlagged && c.flagged[m.ActorID] {
		s.Withheld = true
		s.KickbackUSD = 0
	}
	c.ledger = append(c.ledger, s)
	return s, nil
}

// kickbackShare scales the revenue share by destination: high-cost routes
// support bigger kickbacks.
func kickbackShare(country geo.Country) float64 {
	return country.RevenueShare / 0.75 // expressed against the termination fee
}

// KickbackTo sums the kickbacks paid out for an actor's traffic.
func (c *Chain) KickbackTo(actorID string) float64 {
	var total float64
	for _, s := range c.ledger {
		if s.Message.ActorID == actorID && !s.Withheld {
			total += s.KickbackUSD
		}
	}
	return total
}

// WithheldUSD sums the frozen termination fees.
func (c *Chain) WithheldUSD() float64 {
	var total float64
	for _, s := range c.ledger {
		if s.Withheld {
			total += s.TerminationFeeUSD
		}
	}
	return total
}

// DeliveryRate returns the share of settled messages that actually reached
// a handset.
func (c *Chain) DeliveryRate() float64 {
	if len(c.ledger) == 0 {
		return 0
	}
	delivered := 0
	for _, s := range c.ledger {
		if s.Delivered {
			delivered++
		}
	}
	return float64(delivered) / float64(len(c.ledger))
}

// TerminatorReport summarises one terminator's settled traffic — the view
// a primary operator audits when hunting fraudulent secondaries.
type TerminatorReport struct {
	OperatorID string
	Messages   int
	FeesUSD    float64
	// DeliveryRate below ~1 on volume is the short-stopping tell.
	DeliveryRate float64
}

// TerminatorReports aggregates the ledger per terminator, sorted by
// descending fees.
func (c *Chain) TerminatorReports() []TerminatorReport {
	agg := make(map[string]*TerminatorReport)
	delivered := make(map[string]int)
	for _, s := range c.ledger {
		r, ok := agg[s.TerminatorID]
		if !ok {
			r = &TerminatorReport{OperatorID: s.TerminatorID}
			agg[s.TerminatorID] = r
		}
		r.Messages++
		if !s.Withheld {
			r.FeesUSD += s.TerminationFeeUSD
		}
		if s.Delivered {
			delivered[s.TerminatorID]++
		}
	}
	out := make([]TerminatorReport, 0, len(agg))
	for id, r := range agg {
		if r.Messages > 0 {
			r.DeliveryRate = float64(delivered[id]) / float64(r.Messages)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FeesUSD != out[j].FeesUSD {
			return out[i].FeesUSD > out[j].FeesUSD
		}
		return out[i].OperatorID < out[j].OperatorID
	})
	return out
}
