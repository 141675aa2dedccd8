package sms

import (
	"math"
	"sort"
)

// CountByCountry tallies messages per destination ISO code.
func CountByCountry(msgs []Message) map[string]int {
	out := make(map[string]int)
	for _, m := range msgs {
		out[m.Country]++
	}
	return out
}

// Surge is the per-country volume increase between a baseline window and an
// attack window — one row of the paper's Table I.
type Surge struct {
	Country string
	Before  int
	After   int
	// IncreasePct is the percentage increase, e.g. 160209 for +160,209%.
	// Countries absent from the baseline use a floor of one message so the
	// ratio stays finite, matching how such tables are computed in practice.
	IncreasePct float64
}

// SurgeByCountry compares message volumes between two journal slices and
// returns every country seen in either window, sorted by descending
// increase (ties by code).
func SurgeByCountry(before, after []Message) []Surge {
	b := CountByCountry(before)
	a := CountByCountry(after)
	seen := make(map[string]bool, len(a)+len(b))
	for c := range b {
		seen[c] = true
	}
	for c := range a {
		seen[c] = true
	}
	out := make([]Surge, 0, len(seen))
	for c := range seen {
		base := b[c]
		floor := base
		if floor == 0 {
			floor = 1
		}
		pct := (float64(a[c]) - float64(base)) / float64(floor) * 100
		out = append(out, Surge{Country: c, Before: base, After: a[c], IncreasePct: pct})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IncreasePct != out[j].IncreasePct {
			return out[i].IncreasePct > out[j].IncreasePct
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// TopSurges returns the n largest surges.
func TopSurges(before, after []Message, n int) []Surge {
	all := SurgeByCountry(before, after)
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// GlobalIncreasePct returns the overall percentage volume increase between
// the two windows (the paper reports ~25% for boarding passes in case C).
func GlobalIncreasePct(before, after []Message) float64 {
	if len(before) == 0 {
		if len(after) == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (float64(len(after)) - float64(len(before))) / float64(len(before)) * 100
}
