// Package geo provides the country registry used by the SMS substrate, the
// residential-proxy substrate and the workload generators: ISO codes, dial
// prefixes, regions, and per-country SMS termination pricing.
//
// Termination rates model the A2P (application-to-person) price an
// application owner pays per delivered SMS. SMS-pumping economics hinge on
// the spread between ordinary and high-cost destinations, so rates are
// calibrated to the public shape of A2P price lists: fractions of a cent in
// large competitive markets, several tens of cents in high-cost routes.
package geo

import (
	"fmt"
	"sort"
)

// Region groups countries for reporting.
type Region int

// Regions, in no particular order.
const (
	RegionEurope Region = iota + 1
	RegionCentralAsia
	RegionMiddleEast
	RegionAfrica
	RegionSouthEastAsia
	RegionEastAsia
	RegionSouthAsia
	RegionAmericas
	RegionOceania
)

var regionNames = map[Region]string{
	RegionEurope:        "Europe",
	RegionCentralAsia:   "Central Asia",
	RegionMiddleEast:    "Middle East",
	RegionAfrica:        "Africa",
	RegionSouthEastAsia: "South-East Asia",
	RegionEastAsia:      "East Asia",
	RegionSouthAsia:     "South Asia",
	RegionAmericas:      "Americas",
	RegionOceania:       "Oceania",
}

// String returns the region's display name.
func (r Region) String() string {
	if s, ok := regionNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// Country describes one destination market.
type Country struct {
	// Code is the ISO 3166-1 alpha-2 code, e.g. "UZ".
	Code string
	// Name is the English display name.
	Name string
	// DialPrefix is the E.164 country calling code without "+", e.g. "998".
	DialPrefix string
	// Region is the reporting region.
	Region Region
	// TerminationUSD is the ordinary A2P SMS termination price in USD.
	TerminationUSD float64
	// PremiumUSD is the termination price towards premium / high-cost
	// number ranges in this country.
	PremiumUSD float64
	// RevenueShare is the fraction of the termination price a colluding
	// terminating operator kicks back to the fraudster.
	RevenueShare float64
	// MobileDigits is the subscriber-number length after the dial prefix.
	MobileDigits int
}

// HighCost reports whether the country's ordinary termination rate is in the
// expensive band that makes it attractive for artificial traffic inflation.
func (c Country) HighCost() bool { return c.TerminationUSD >= 0.10 }

// Registry is an immutable set of countries indexed by ISO code.
type Registry struct {
	byCode map[string]Country
	codes  []string // sorted for deterministic iteration
	// byPrefix resolves a dial prefix to its country in O(1). Prefixes
	// shared between countries (the NANP "1" for US/CA) resolve to the
	// smallest ISO code so that number attribution is deterministic.
	byPrefix  map[string]Country
	maxPrefix int
}

// NewRegistry builds a registry from the given countries. Duplicate codes
// are rejected so that experiment configs cannot silently shadow each other.
func NewRegistry(countries []Country) (*Registry, error) {
	byCode := make(map[string]Country, len(countries))
	codes := make([]string, 0, len(countries))
	for _, c := range countries {
		if c.Code == "" {
			return nil, fmt.Errorf("geo: country %q has empty code", c.Name)
		}
		if _, dup := byCode[c.Code]; dup {
			return nil, fmt.Errorf("geo: duplicate country code %q", c.Code)
		}
		byCode[c.Code] = c
		codes = append(codes, c.Code)
	}
	sort.Strings(codes)
	// Build the prefix table in sorted-code order so that a shared dial
	// prefix always resolves to the same (smallest) code.
	byPrefix := make(map[string]Country, len(countries))
	maxPrefix := 0
	for _, code := range codes {
		c := byCode[code]
		if _, shared := byPrefix[c.DialPrefix]; !shared {
			byPrefix[c.DialPrefix] = c
		}
		if len(c.DialPrefix) > maxPrefix {
			maxPrefix = len(c.DialPrefix)
		}
	}
	return &Registry{byCode: byCode, codes: codes, byPrefix: byPrefix, maxPrefix: maxPrefix}, nil
}

// Default returns the built-in registry of destination markets. It includes
// every country named in the paper's Table I plus enough additional markets
// to reproduce the 42-country targeting of the Airline D case study.
func Default() *Registry {
	reg, err := NewRegistry(defaultCountries())
	if err != nil {
		// The built-in table is a compile-time constant; a duplicate is a
		// programming error, not a runtime condition.
		panic(err)
	}
	return reg
}

// Lookup returns the country for an ISO code.
func (r *Registry) Lookup(code string) (Country, bool) {
	c, ok := r.byCode[code]
	return c, ok
}

// MustLookup is Lookup for codes the caller knows exist; it panics on a
// missing code to surface misconfigured experiments immediately.
func (r *Registry) MustLookup(code string) Country {
	c, ok := r.byCode[code]
	if !ok {
		panic(fmt.Sprintf("geo: unknown country code %q", code))
	}
	return c
}

// Codes returns all ISO codes in sorted order.
func (r *Registry) Codes() []string {
	out := make([]string, len(r.codes))
	copy(out, r.codes)
	return out
}

// Len returns the number of countries.
func (r *Registry) Len() int { return len(r.codes) }

// All returns the countries in sorted code order.
func (r *Registry) All() []Country {
	out := make([]Country, 0, len(r.codes))
	for _, code := range r.codes {
		out = append(out, r.byCode[code])
	}
	return out
}

func defaultCountries() []Country {
	return []Country{
		// Table I countries. Termination pricing gives the six high-cost
		// destinations the economics that made them pump targets.
		{Code: "UZ", Name: "Uzbekistan", DialPrefix: "998", Region: RegionCentralAsia, TerminationUSD: 0.28, PremiumUSD: 0.55, RevenueShare: 0.45, MobileDigits: 9},
		{Code: "IR", Name: "Iran", DialPrefix: "98", Region: RegionMiddleEast, TerminationUSD: 0.24, PremiumUSD: 0.48, RevenueShare: 0.42, MobileDigits: 10},
		{Code: "KG", Name: "Kyrgyzstan", DialPrefix: "996", Region: RegionCentralAsia, TerminationUSD: 0.22, PremiumUSD: 0.44, RevenueShare: 0.40, MobileDigits: 9},
		{Code: "JO", Name: "Jordan", DialPrefix: "962", Region: RegionMiddleEast, TerminationUSD: 0.18, PremiumUSD: 0.36, RevenueShare: 0.38, MobileDigits: 9},
		{Code: "NG", Name: "Nigeria", DialPrefix: "234", Region: RegionAfrica, TerminationUSD: 0.16, PremiumUSD: 0.34, RevenueShare: 0.36, MobileDigits: 10},
		{Code: "KH", Name: "Cambodia", DialPrefix: "855", Region: RegionSouthEastAsia, TerminationUSD: 0.14, PremiumUSD: 0.30, RevenueShare: 0.34, MobileDigits: 9},
		{Code: "SG", Name: "Singapore", DialPrefix: "65", Region: RegionSouthEastAsia, TerminationUSD: 0.035, PremiumUSD: 0.10, RevenueShare: 0.10, MobileDigits: 8},
		{Code: "GB", Name: "United Kingdom", DialPrefix: "44", Region: RegionEurope, TerminationUSD: 0.028, PremiumUSD: 0.09, RevenueShare: 0.08, MobileDigits: 10},
		{Code: "CN", Name: "China", DialPrefix: "86", Region: RegionEastAsia, TerminationUSD: 0.025, PremiumUSD: 0.08, RevenueShare: 0.08, MobileDigits: 11},
		{Code: "TH", Name: "Thailand", DialPrefix: "66", Region: RegionSouthEastAsia, TerminationUSD: 0.020, PremiumUSD: 0.07, RevenueShare: 0.08, MobileDigits: 9},

		// Additional markets (ordinary traffic + pump long tail) to reach
		// the 42-country footprint of case study C.
		{Code: "FR", Name: "France", DialPrefix: "33", Region: RegionEurope, TerminationUSD: 0.045, PremiumUSD: 0.12, RevenueShare: 0.05, MobileDigits: 9},
		{Code: "DE", Name: "Germany", DialPrefix: "49", Region: RegionEurope, TerminationUSD: 0.075, PremiumUSD: 0.15, RevenueShare: 0.05, MobileDigits: 10},
		{Code: "ES", Name: "Spain", DialPrefix: "34", Region: RegionEurope, TerminationUSD: 0.040, PremiumUSD: 0.11, RevenueShare: 0.05, MobileDigits: 9},
		{Code: "IT", Name: "Italy", DialPrefix: "39", Region: RegionEurope, TerminationUSD: 0.055, PremiumUSD: 0.13, RevenueShare: 0.05, MobileDigits: 10},
		{Code: "PT", Name: "Portugal", DialPrefix: "351", Region: RegionEurope, TerminationUSD: 0.038, PremiumUSD: 0.10, RevenueShare: 0.05, MobileDigits: 9},
		{Code: "NL", Name: "Netherlands", DialPrefix: "31", Region: RegionEurope, TerminationUSD: 0.065, PremiumUSD: 0.14, RevenueShare: 0.05, MobileDigits: 9},
		{Code: "BE", Name: "Belgium", DialPrefix: "32", Region: RegionEurope, TerminationUSD: 0.070, PremiumUSD: 0.15, RevenueShare: 0.05, MobileDigits: 9},
		{Code: "CH", Name: "Switzerland", DialPrefix: "41", Region: RegionEurope, TerminationUSD: 0.050, PremiumUSD: 0.12, RevenueShare: 0.05, MobileDigits: 9},
		{Code: "AT", Name: "Austria", DialPrefix: "43", Region: RegionEurope, TerminationUSD: 0.060, PremiumUSD: 0.13, RevenueShare: 0.05, MobileDigits: 10},
		{Code: "SE", Name: "Sweden", DialPrefix: "46", Region: RegionEurope, TerminationUSD: 0.045, PremiumUSD: 0.11, RevenueShare: 0.05, MobileDigits: 9},
		{Code: "NO", Name: "Norway", DialPrefix: "47", Region: RegionEurope, TerminationUSD: 0.048, PremiumUSD: 0.11, RevenueShare: 0.05, MobileDigits: 8},
		{Code: "PL", Name: "Poland", DialPrefix: "48", Region: RegionEurope, TerminationUSD: 0.032, PremiumUSD: 0.09, RevenueShare: 0.06, MobileDigits: 9},
		{Code: "GR", Name: "Greece", DialPrefix: "30", Region: RegionEurope, TerminationUSD: 0.042, PremiumUSD: 0.11, RevenueShare: 0.06, MobileDigits: 10},
		{Code: "TR", Name: "Turkey", DialPrefix: "90", Region: RegionMiddleEast, TerminationUSD: 0.015, PremiumUSD: 0.06, RevenueShare: 0.10, MobileDigits: 10},
		{Code: "AE", Name: "United Arab Emirates", DialPrefix: "971", Region: RegionMiddleEast, TerminationUSD: 0.038, PremiumUSD: 0.12, RevenueShare: 0.12, MobileDigits: 9},
		{Code: "SA", Name: "Saudi Arabia", DialPrefix: "966", Region: RegionMiddleEast, TerminationUSD: 0.036, PremiumUSD: 0.11, RevenueShare: 0.12, MobileDigits: 9},
		{Code: "IQ", Name: "Iraq", DialPrefix: "964", Region: RegionMiddleEast, TerminationUSD: 0.12, PremiumUSD: 0.26, RevenueShare: 0.30, MobileDigits: 10},
		{Code: "LB", Name: "Lebanon", DialPrefix: "961", Region: RegionMiddleEast, TerminationUSD: 0.11, PremiumUSD: 0.24, RevenueShare: 0.28, MobileDigits: 8},
		{Code: "YE", Name: "Yemen", DialPrefix: "967", Region: RegionMiddleEast, TerminationUSD: 0.13, PremiumUSD: 0.28, RevenueShare: 0.32, MobileDigits: 9},
		{Code: "TJ", Name: "Tajikistan", DialPrefix: "992", Region: RegionCentralAsia, TerminationUSD: 0.20, PremiumUSD: 0.42, RevenueShare: 0.38, MobileDigits: 9},
		{Code: "TM", Name: "Turkmenistan", DialPrefix: "993", Region: RegionCentralAsia, TerminationUSD: 0.19, PremiumUSD: 0.40, RevenueShare: 0.36, MobileDigits: 8},
		{Code: "KZ", Name: "Kazakhstan", DialPrefix: "7", Region: RegionCentralAsia, TerminationUSD: 0.085, PremiumUSD: 0.20, RevenueShare: 0.20, MobileDigits: 10},
		{Code: "AZ", Name: "Azerbaijan", DialPrefix: "994", Region: RegionCentralAsia, TerminationUSD: 0.15, PremiumUSD: 0.32, RevenueShare: 0.30, MobileDigits: 9},
		{Code: "PK", Name: "Pakistan", DialPrefix: "92", Region: RegionSouthAsia, TerminationUSD: 0.095, PremiumUSD: 0.22, RevenueShare: 0.25, MobileDigits: 10},
		{Code: "BD", Name: "Bangladesh", DialPrefix: "880", Region: RegionSouthAsia, TerminationUSD: 0.105, PremiumUSD: 0.24, RevenueShare: 0.26, MobileDigits: 10},
		{Code: "LK", Name: "Sri Lanka", DialPrefix: "94", Region: RegionSouthAsia, TerminationUSD: 0.090, PremiumUSD: 0.21, RevenueShare: 0.24, MobileDigits: 9},
		{Code: "IN", Name: "India", DialPrefix: "91", Region: RegionSouthAsia, TerminationUSD: 0.012, PremiumUSD: 0.05, RevenueShare: 0.08, MobileDigits: 10},
		{Code: "ID", Name: "Indonesia", DialPrefix: "62", Region: RegionSouthEastAsia, TerminationUSD: 0.068, PremiumUSD: 0.16, RevenueShare: 0.15, MobileDigits: 10},
		{Code: "MY", Name: "Malaysia", DialPrefix: "60", Region: RegionSouthEastAsia, TerminationUSD: 0.030, PremiumUSD: 0.09, RevenueShare: 0.10, MobileDigits: 9},
		{Code: "PH", Name: "Philippines", DialPrefix: "63", Region: RegionSouthEastAsia, TerminationUSD: 0.058, PremiumUSD: 0.14, RevenueShare: 0.14, MobileDigits: 10},
		{Code: "VN", Name: "Vietnam", DialPrefix: "84", Region: RegionSouthEastAsia, TerminationUSD: 0.062, PremiumUSD: 0.15, RevenueShare: 0.14, MobileDigits: 9},
		{Code: "MM", Name: "Myanmar", DialPrefix: "95", Region: RegionSouthEastAsia, TerminationUSD: 0.115, PremiumUSD: 0.25, RevenueShare: 0.28, MobileDigits: 9},
		{Code: "LA", Name: "Laos", DialPrefix: "856", Region: RegionSouthEastAsia, TerminationUSD: 0.12, PremiumUSD: 0.26, RevenueShare: 0.28, MobileDigits: 9},
		{Code: "JP", Name: "Japan", DialPrefix: "81", Region: RegionEastAsia, TerminationUSD: 0.070, PremiumUSD: 0.16, RevenueShare: 0.05, MobileDigits: 10},
		{Code: "KR", Name: "South Korea", DialPrefix: "82", Region: RegionEastAsia, TerminationUSD: 0.022, PremiumUSD: 0.07, RevenueShare: 0.05, MobileDigits: 10},
		{Code: "HK", Name: "Hong Kong", DialPrefix: "852", Region: RegionEastAsia, TerminationUSD: 0.045, PremiumUSD: 0.11, RevenueShare: 0.08, MobileDigits: 8},
		{Code: "TW", Name: "Taiwan", DialPrefix: "886", Region: RegionEastAsia, TerminationUSD: 0.052, PremiumUSD: 0.12, RevenueShare: 0.08, MobileDigits: 9},
		{Code: "EG", Name: "Egypt", DialPrefix: "20", Region: RegionAfrica, TerminationUSD: 0.098, PremiumUSD: 0.22, RevenueShare: 0.22, MobileDigits: 10},
		{Code: "KE", Name: "Kenya", DialPrefix: "254", Region: RegionAfrica, TerminationUSD: 0.088, PremiumUSD: 0.20, RevenueShare: 0.22, MobileDigits: 9},
		{Code: "GH", Name: "Ghana", DialPrefix: "233", Region: RegionAfrica, TerminationUSD: 0.092, PremiumUSD: 0.21, RevenueShare: 0.24, MobileDigits: 9},
		{Code: "ZA", Name: "South Africa", DialPrefix: "27", Region: RegionAfrica, TerminationUSD: 0.026, PremiumUSD: 0.08, RevenueShare: 0.10, MobileDigits: 9},
		{Code: "TN", Name: "Tunisia", DialPrefix: "216", Region: RegionAfrica, TerminationUSD: 0.105, PremiumUSD: 0.23, RevenueShare: 0.25, MobileDigits: 8},
		{Code: "MA", Name: "Morocco", DialPrefix: "212", Region: RegionAfrica, TerminationUSD: 0.082, PremiumUSD: 0.19, RevenueShare: 0.20, MobileDigits: 9},
		{Code: "SN", Name: "Senegal", DialPrefix: "221", Region: RegionAfrica, TerminationUSD: 0.110, PremiumUSD: 0.24, RevenueShare: 0.26, MobileDigits: 9},
		{Code: "US", Name: "United States", DialPrefix: "1", Region: RegionAmericas, TerminationUSD: 0.0075, PremiumUSD: 0.04, RevenueShare: 0.03, MobileDigits: 10},
		{Code: "CA", Name: "Canada", DialPrefix: "1", Region: RegionAmericas, TerminationUSD: 0.0080, PremiumUSD: 0.04, RevenueShare: 0.03, MobileDigits: 10},
		{Code: "BR", Name: "Brazil", DialPrefix: "55", Region: RegionAmericas, TerminationUSD: 0.030, PremiumUSD: 0.09, RevenueShare: 0.08, MobileDigits: 11},
		{Code: "MX", Name: "Mexico", DialPrefix: "52", Region: RegionAmericas, TerminationUSD: 0.028, PremiumUSD: 0.09, RevenueShare: 0.08, MobileDigits: 10},
		{Code: "AR", Name: "Argentina", DialPrefix: "54", Region: RegionAmericas, TerminationUSD: 0.055, PremiumUSD: 0.13, RevenueShare: 0.10, MobileDigits: 10},
		{Code: "AU", Name: "Australia", DialPrefix: "61", Region: RegionOceania, TerminationUSD: 0.035, PremiumUSD: 0.10, RevenueShare: 0.05, MobileDigits: 9},
		{Code: "NZ", Name: "New Zealand", DialPrefix: "64", Region: RegionOceania, TerminationUSD: 0.095, PremiumUSD: 0.21, RevenueShare: 0.08, MobileDigits: 9},
	}
}
