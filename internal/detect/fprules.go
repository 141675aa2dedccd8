package detect

import (
	"time"

	"funabuse/internal/fingerprint"
)

// FingerprintRules is the knowledge-based detector: a blocklist of exact
// fingerprint hashes (the rules the Airline A defenders kept adding) plus
// the static artifact and consistency checks that need no prior sighting.
//
// The rules engine records when each hash rule last matched, which lets the
// case-study harness measure how quickly rotation decays a rule's value —
// the paper's attackers made each rule stale within ~5.3 hours.
type FingerprintRules struct {
	// blocked maps fingerprint hash -> when the rule was installed.
	blocked map[uint64]time.Time
	// lastHit maps hash -> last time the rule matched traffic.
	lastHit map[uint64]time.Time
	// CheckArtifacts enables the webdriver/headless artifact checks.
	CheckArtifacts bool
	// CheckConsistency enables the cross-attribute inconsistency checks.
	CheckConsistency bool
}

// NewFingerprintRules returns an engine with both static check families on
// and an empty blocklist.
func NewFingerprintRules() *FingerprintRules {
	return &FingerprintRules{
		blocked:          make(map[uint64]time.Time),
		lastHit:          make(map[uint64]time.Time),
		CheckArtifacts:   true,
		CheckConsistency: true,
	}
}

// Block installs a hash rule at the given instant.
func (r *FingerprintRules) Block(hash uint64, at time.Time) {
	if _, exists := r.blocked[hash]; !exists {
		r.blocked[hash] = at
	}
}

// Unblock removes a hash rule.
func (r *FingerprintRules) Unblock(hash uint64) {
	delete(r.blocked, hash)
	delete(r.lastHit, hash)
}

// Rules returns how many hash rules are installed.
func (r *FingerprintRules) Rules() int { return len(r.blocked) }

// Judge evaluates a fingerprint at an instant. h is f.Hash(): every caller
// already holds the digest (the application hashes once per request, the
// weblog stores it), so the rules engine does not hash again.
func (r *FingerprintRules) Judge(f fingerprint.Fingerprint, h uint64, at time.Time) Verdict {
	if _, blocked := r.blocked[h]; blocked {
		r.lastHit[h] = at
		return Verdict{Flagged: true, Score: 1, Reason: "fp-blocklist"}
	}
	if r.CheckArtifacts && f.Webdriver {
		return Verdict{Flagged: true, Score: 0.95, Reason: "fp-artifact"}
	}
	if r.CheckConsistency {
		if inc := fingerprint.Validate(f); len(inc) > 0 {
			return Verdict{Flagged: true, Score: 0.8, Reason: "fp-inconsistent:" + inc[0].Check}
		}
	}
	return Verdict{}
}

// RuleLifetime reports, for a hash rule, the observed useful lifetime: time
// between installation and the last traffic match. Rules that never matched
// report zero and false.
func (r *FingerprintRules) RuleLifetime(hash uint64) (time.Duration, bool) {
	installed, ok := r.blocked[hash]
	if !ok {
		return 0, false
	}
	hit, ok := r.lastHit[hash]
	if !ok {
		return 0, false
	}
	return hit.Sub(installed), true
}

// StaleRules counts installed hash rules that have not matched since
// cutoff — the measure of how rotation erodes a blocklist.
func (r *FingerprintRules) StaleRules(cutoff time.Time) int {
	stale := 0
	for h := range r.blocked {
		hit, ok := r.lastHit[h]
		if !ok || hit.Before(cutoff) {
			stale++
		}
	}
	return stale
}
