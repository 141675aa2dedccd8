package loadgen

import (
	"strconv"
	"sync"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/mitigate"
	"funabuse/internal/simclock"
)

// Rule is one fingerprint block rule the defender deployed mid-run.
type Rule struct {
	FP uint64
	At time.Time
}

// RuleDeployer is the server-side half of the arms race: a defender that
// watches per-fingerprint volume on sensitive paths through the gate's
// OnDecision hook and pushes a fingerprint block rule when a print runs
// hot — the knowledge-based blocking the paper's Airline A operators
// practised, and the stimulus the adaptive attacker clients react to.
// It is driven from the gate's serving goroutines and synchronises itself.
type RuleDeployer struct {
	blocks    *mitigate.BlockList
	clock     simclock.Clock
	threshold int
	window    time.Duration
	decoys    *mitigate.DecoySet

	mu       sync.Mutex
	winStart time.Time
	counts   map[uint64]int
	rules    []Rule
	ruleAt   map[uint64]time.Time
}

// feed is the deployer's share of the decision hook, watched when the
// request's path is one of the rule paths. Blocklist denials are not
// counted: a fingerprint already caught by a rule must not re-trigger
// deployment, and everything else — including rate-limited requests — is
// evidence of volume. With decoy inventory wired, an admitted request
// touching a decoy reference deploys immediately, regardless of the
// volume threshold or the watched-path set.
func (d *RuleDeployer) feed(watched bool, ref string, info httpgate.ClientInfo, deniedBy string) {
	if !info.HasFingerprint || deniedBy == httpgate.ReasonBlocklist {
		return
	}
	now := d.clock.Now()
	if d.decoys != nil && deniedBy == "" && ref != "" && d.decoys.IsDecoy(ref) {
		d.decoys.RecordHit()
		d.mu.Lock()
		d.deployLocked(info.Fingerprint, now)
		d.mu.Unlock()
	}
	if d.threshold <= 0 || !watched {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.winStart.IsZero() || d.window > 0 && now.Sub(d.winStart) >= d.window {
		d.winStart = now
		clear(d.counts)
	}
	d.counts[info.Fingerprint]++
	if d.counts[info.Fingerprint] == d.threshold {
		d.deployLocked(info.Fingerprint, now)
	}
}

// deployLocked pushes a fingerprint rule unless one already exists.
// Callers hold d.mu.
func (d *RuleDeployer) deployLocked(fp uint64, now time.Time) {
	if _, dup := d.ruleAt[fp]; dup {
		return
	}
	var buf [len("fp:") + 16]byte
	d.blocks.Block(string(strconv.AppendUint(append(buf[:0], "fp:"...), fp, 16)), now)
	d.ruleAt[fp] = now
	d.rules = append(d.rules, Rule{FP: fp, At: now})
}

// Rules snapshots the deployed rules in deployment order.
func (d *RuleDeployer) Rules() []Rule {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Rule, len(d.rules))
	copy(out, d.rules)
	return out
}

// TimeToRotation joins one client rotation against the rules: the
// measured interval is rule deployment → rotated identity first
// presented, the paper's 5.3-hour Case A statistic. When the rotated-from
// fingerprint was never named by a rule (the bot reacted to a degraded
// denial or a stale observation), the notice time stands in.
func TimeToRotation(rot Rotation, rules []Rule) time.Duration {
	for _, r := range rules {
		if r.FP == rot.FromFP {
			return rot.At.Sub(r.At)
		}
	}
	return rot.At.Sub(rot.NoticedAt)
}

// MeanTimeToRotation averages TimeToRotation over all rotations; ok is
// false when there were none.
func MeanTimeToRotation(rotations []Rotation, rules []Rule) (mean time.Duration, ok bool) {
	if len(rotations) == 0 {
		return 0, false
	}
	var total time.Duration
	for _, rot := range rotations {
		total += TimeToRotation(rot, rules)
	}
	return total / time.Duration(len(rotations)), true
}
