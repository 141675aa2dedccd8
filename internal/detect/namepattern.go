package detect

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"funabuse/internal/booking"
	"funabuse/internal/names"
)

// NameFinding is one suspicious passenger-detail pattern surfaced from the
// reservation journal.
type NameFinding struct {
	// Pattern is the kind of anomaly.
	Pattern NamePattern
	// Key is the canonical name (or cluster representative) involved.
	Key string
	// Reservations is how many accepted holds the pattern spans.
	Reservations int
	// Detail carries pattern-specific context.
	Detail string
}

// NamePattern enumerates the case-study-B signatures.
type NamePattern int

// Name patterns, in decreasing specificity.
const (
	// PatternRotatingBirthdate is a fixed lead name whose birthdate changes
	// across reservations (Airline B automation).
	PatternRotatingBirthdate NamePattern = iota + 1
	// PatternNameReuse is a small pool of names recurring across many
	// reservations (Airline C manual attack).
	PatternNameReuse
	// PatternTypoCluster is a group of names within edit distance 1 of a
	// common form (manual-entry misspellings).
	PatternTypoCluster
)

// String names the pattern.
func (p NamePattern) String() string {
	switch p {
	case PatternRotatingBirthdate:
		return "rotating-birthdate"
	case PatternNameReuse:
		return "name-reuse"
	case PatternTypoCluster:
		return "typo-cluster"
	default:
		return "unknown"
	}
}

// NamePatternConfig tunes the detector.
type NamePatternConfig struct {
	// MinReuse is how many reservations a single name must appear on
	// before it is reported. Legitimate travellers rebook occasionally;
	// attackers reuse pools dozens of times.
	MinReuse int
	// MinBirthdates is how many distinct birthdates a reused name must
	// present to be reported as rotating.
	MinBirthdates int
	// MinClusterSize is how many near-identical variants constitute a typo
	// cluster.
	MinClusterSize int
}

// DefaultNamePatternConfig returns conservative production-style thresholds.
func DefaultNamePatternConfig() NamePatternConfig {
	return NamePatternConfig{MinReuse: 5, MinBirthdates: 4, MinClusterSize: 3}
}

// NamePatternDetector analyses accepted reservations for the passenger-
// detail signatures of case study B.
type NamePatternDetector struct {
	cfg NamePatternConfig
}

// NewNamePatternDetector returns a detector with the given thresholds.
func NewNamePatternDetector(cfg NamePatternConfig) *NamePatternDetector {
	def := DefaultNamePatternConfig()
	if cfg.MinReuse <= 0 {
		cfg.MinReuse = def.MinReuse
	}
	if cfg.MinBirthdates <= 0 {
		cfg.MinBirthdates = def.MinBirthdates
	}
	if cfg.MinClusterSize <= 0 {
		cfg.MinClusterSize = def.MinClusterSize
	}
	return &NamePatternDetector{cfg: cfg}
}

// nameStats aggregates per-name reservation evidence.
type nameStats struct {
	reservations distinct[booking.HoldID]
	birthdates   distinct[time.Time]
}

// distinct counts distinct values. Nearly every name appears on one
// reservation with one birthdate, so the first value is held inline and the
// set is only allocated when a second distinct value arrives.
type distinct[T comparable] struct {
	first T
	some  bool
	rest  map[T]struct{}
}

func (d *distinct[T]) add(v T) {
	switch {
	case !d.some:
		d.first, d.some = v, true
	case v == d.first:
	default:
		if d.rest == nil {
			d.rest = make(map[T]struct{})
		}
		d.rest[v] = struct{}{}
	}
}

func (d *distinct[T]) len() int {
	if !d.some {
		return 0
	}
	return 1 + len(d.rest)
}

// Analyze scans accepted journal records and returns the findings sorted by
// descending reservation span (ties by key).
func (d *NamePatternDetector) Analyze(records []booking.Record) []NameFinding {
	stats := make(map[string]*nameStats)
	for _, r := range records {
		if r.Outcome != booking.OutcomeAccepted {
			continue
		}
		for _, p := range r.Passengers {
			key := p.Key()
			st, ok := stats[key]
			if !ok {
				st = &nameStats{}
				stats[key] = st
			}
			st.reservations.add(r.HoldID)
			st.birthdates.add(p.BirthDate)
		}
	}

	var findings []NameFinding
	for key, st := range stats {
		n := st.reservations.len()
		if n < d.cfg.MinReuse {
			continue
		}
		if st.birthdates.len() >= d.cfg.MinBirthdates {
			findings = append(findings, NameFinding{
				Pattern:      PatternRotatingBirthdate,
				Key:          key,
				Reservations: n,
				Detail:       "distinct birthdates: " + strconv.Itoa(st.birthdates.len()),
			})
		} else {
			findings = append(findings, NameFinding{
				Pattern:      PatternNameReuse,
				Key:          key,
				Reservations: n,
			})
		}
	}

	findings = append(findings, d.typoClusters(stats)...)

	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Reservations != findings[j].Reservations {
			return findings[i].Reservations > findings[j].Reservations
		}
		if findings[i].Pattern != findings[j].Pattern {
			return findings[i].Pattern < findings[j].Pattern
		}
		return findings[i].Key < findings[j].Key
	})
	return findings
}

// typoClusters groups keys within Damerau-Levenshtein distance 1 of a
// representative. Only clusters whose total reservation span reaches
// MinClusterSize are reported.
//
// A single-character typo touches either the first or the last name, never
// both, so candidate pairs must share one name part exactly. Bucketing on
// the exact tokens turns the naive O(n²) scan into near-linear work over
// small buckets, which keeps hourly defender reviews cheap.
func (d *NamePatternDetector) typoClusters(stats map[string]*nameStats) []NameFinding {
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	byFirst := bucketKeys(keys, func(k string) string { first, _ := splitKey(k); return first })
	byLast := bucketKeys(keys, func(k string) string { _, last := splitKey(k); return last })
	// within1 reports distance exactly 1. The distance is at least the
	// length difference, so most pairs are settled without running the DP.
	within1 := func(rep, other string) bool {
		if d := len(rep) - len(other); d < -1 || d > 1 {
			return false
		}
		return names.DamerauLevenshtein(rep, other) == 1
	}
	neighbours := func(rep string) []string {
		first, last := splitKey(rep)
		var out []string
		for _, other := range byFirst[first] {
			if other != rep && within1(rep, other) {
				out = append(out, other)
			}
		}
		for _, other := range byLast[last] {
			// Keys sharing rep's first name were judged in the loop above.
			if otherFirst, _ := splitKey(other); otherFirst != first && within1(rep, other) {
				out = append(out, other)
			}
		}
		sort.Strings(out)
		return out
	}

	used := make(map[string]bool, len(keys))
	var findings []NameFinding
	for _, rep := range keys {
		if used[rep] {
			continue
		}
		cluster := []string{rep}
		for _, other := range neighbours(rep) {
			if !used[other] {
				cluster = append(cluster, other)
			}
		}
		if len(cluster) < 2 {
			continue
		}
		span := 0
		for _, k := range cluster {
			span += stats[k].reservations.len()
			used[k] = true
		}
		if span >= d.cfg.MinClusterSize {
			findings = append(findings, NameFinding{
				Pattern:      PatternTypoCluster,
				Key:          rep,
				Reservations: span,
				Detail:       "variants: " + strconv.Itoa(len(cluster)),
			})
		}
	}
	return findings
}

// bucketKeys groups keys by part(key), preserving their order. A counting
// pass sizes every bucket, so all of them are carved from one backing array.
func bucketKeys(keys []string, part func(string) string) map[string][]string {
	counts := make(map[string]int)
	for _, k := range keys {
		counts[part(k)]++
	}
	backing := make([]string, len(keys))
	buckets := make(map[string][]string, len(counts))
	for _, k := range keys {
		p := part(k)
		b, ok := buckets[p]
		if !ok {
			n := counts[p]
			b, backing = backing[:0:n], backing[n:]
		}
		buckets[p] = append(b, k)
	}
	return buckets
}

// splitKey separates a canonical "FIRST LAST" key into its two name parts.
// Keys without a space fall back to the whole key for both parts.
func splitKey(key string) (first, last string) {
	if i := strings.IndexByte(key, ' '); i >= 0 {
		return key[:i], key[i+1:]
	}
	return key, key
}

// SuspectActors maps findings back to the actor IDs whose reservations
// carry the flagged names, for mitigation targeting. Detectors do not read
// ground-truth labels; ActorID here is the application-level client
// identity (e.g. profile or session key), which production systems do have.
func SuspectActors(records []booking.Record, findings []NameFinding) []string {
	flagged := make(map[string]bool, len(findings))
	for _, f := range findings {
		flagged[f.Key] = true
	}
	actorSet := make(map[string]bool)
	for _, r := range records {
		if r.Outcome != booking.OutcomeAccepted {
			continue
		}
		for _, p := range r.Passengers {
			if flagged[p.Key()] {
				actorSet[r.ActorID] = true
				break
			}
		}
	}
	out := make([]string, 0, len(actorSet))
	for a := range actorSet {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
