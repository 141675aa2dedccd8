package detect

import "funabuse/internal/fingerprint"

// FingerprintRules is the knowledge-based detector: a blocklist of exact
// fingerprint hashes (the rules the Airline A defenders kept adding) plus
// the static artifact and consistency checks that need no prior sighting.
type FingerprintRules struct {
	// blocked holds the blocklisted fingerprint hashes.
	blocked map[uint64]struct{}
	// CheckArtifacts enables the webdriver/headless artifact checks.
	CheckArtifacts bool
	// CheckConsistency enables the cross-attribute inconsistency checks.
	CheckConsistency bool
}

// NewFingerprintRules returns an engine with both static check families on
// and an empty blocklist.
func NewFingerprintRules() *FingerprintRules {
	return &FingerprintRules{
		blocked:          make(map[uint64]struct{}),
		CheckArtifacts:   true,
		CheckConsistency: true,
	}
}

// Block installs a hash rule.
func (r *FingerprintRules) Block(hash uint64) { r.blocked[hash] = struct{}{} }

// Rules returns how many hash rules are installed.
func (r *FingerprintRules) Rules() int { return len(r.blocked) }

// Judge evaluates a fingerprint. h is f.Hash(): every caller
// already holds the digest (the application hashes once per request, the
// weblog stores it), so the rules engine does not hash again.
func (r *FingerprintRules) Judge(f fingerprint.Fingerprint, h uint64) Verdict {
	if _, blocked := r.blocked[h]; blocked {
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
