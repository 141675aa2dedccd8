package geo

import (
	"strings"

	"funabuse/internal/simrand"
)

// MSISDN is an E.164 phone number without the leading "+", e.g.
// "998901234567". The country dial prefix is the leading digits.
type MSISDN string

// Premium subscriber ranges start with this digit in the simulated numbering
// plan. Real premium ranges vary per country; the single marker digit keeps
// routing decisions easy to reason about in tests while preserving the
// premium/ordinary price split that drives the economics experiments.
const premiumLeadDigit = '9'

// NumberPlan generates valid mobile numbers for a country.
type NumberPlan struct {
	country Country
}

// PlanFor returns the numbering plan for a country.
func PlanFor(c Country) NumberPlan { return NumberPlan{country: c} }

// Random returns a random ordinary mobile number in this plan.
func (p NumberPlan) Random(r *simrand.RNG) MSISDN {
	return p.generate(r, false)
}

// RandomPremium returns a random premium-range number in this plan.
func (p NumberPlan) RandomPremium(r *simrand.RNG) MSISDN {
	return p.generate(r, true)
}

func (p NumberPlan) generate(r *simrand.RNG, premium bool) MSISDN {
	digits := p.country.MobileDigits
	if digits <= 0 {
		digits = 9
	}
	var b strings.Builder
	b.Grow(len(p.country.DialPrefix) + digits)
	b.WriteString(p.country.DialPrefix)
	for i := range digits {
		if i == 0 {
			if premium {
				b.WriteByte(premiumLeadDigit)
			} else {
				// Ordinary numbers avoid the premium marker digit.
				b.WriteByte(byte('1' + r.Intn(8)))
			}
			continue
		}
		b.WriteByte(byte('0' + r.Intn(10)))
	}
	return MSISDN(b.String())
}

// IsPremium reports whether the subscriber part of the number sits in the
// premium range of its plan.
func (p NumberPlan) IsPremium(n MSISDN) bool {
	s := string(n)
	if !strings.HasPrefix(s, p.country.DialPrefix) {
		return false
	}
	rest := s[len(p.country.DialPrefix):]
	return len(rest) > 0 && rest[0] == premiumLeadDigit
}

// CountryOf resolves a number to its country by longest-prefix match over
// the registry's dial prefixes. Resolution walks candidate prefixes from
// longest to shortest, so it costs at most maxPrefix map probes and zero
// allocations — this sits on the per-message path of every gateway send.
// Shared prefixes (the NANP "1") resolve to the smallest ISO code, which
// keeps attribution deterministic under concurrent replicates.
func (r *Registry) CountryOf(n MSISDN) (Country, bool) {
	s := string(n)
	l := min(r.maxPrefix, len(s))
	for ; l > 0; l-- {
		if c, ok := r.byPrefix[s[:l]]; ok {
			return c, true
		}
	}
	return Country{}, false
}
