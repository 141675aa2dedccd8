package mitigate

import (
	"sync/atomic"

	"funabuse/internal/simrand"
)

// DecoySet is live honeypot inventory: a seeded fraction of the target's
// bookable resource references are decoys — they look identical to real
// inventory from the outside, but booking one earns the attacker nothing
// and hands the defender hard evidence of enumeration (honest clients
// book the references they were issued; only enumeration walks into a
// decoy). This moves the offline Honeypot experiment's economics into
// the live serving path: hits are counted and feed the rule deployer.
//
// Selection is deterministic for a given (seed, refs, fraction), so a
// scenario's decoy layout is identical across reruns and worker counts.
// Membership is immutable after construction and read lock-free; the hit
// count is atomic.
type DecoySet struct {
	decoys map[string]bool
	hits   atomic.Int64
}

// NewDecoySet seeds fraction of refs as decoys (rounded to nearest, at
// least one when fraction > 0 and refs is non-empty). The choice is a
// seeded partial Fisher–Yates over the refs in the order given.
func NewDecoySet(seed uint64, refs []string, fraction float64) *DecoySet {
	d := &DecoySet{decoys: make(map[string]bool)}
	if len(refs) == 0 || fraction <= 0 {
		return d
	}
	if fraction > 1 {
		fraction = 1
	}
	n := int(float64(len(refs))*fraction + 0.5)
	if n < 1 {
		n = 1
	}
	pool := append([]string(nil), refs...)
	rng := simrand.New(seed)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		d.decoys[pool[i]] = true
	}
	return d
}

// IsDecoy reports whether ref is decoy inventory. Lock-free: membership
// is immutable after construction, so this is safe on the serving path.
func (d *DecoySet) IsDecoy(ref string) bool { return d.decoys[ref] }

// RecordHit counts one decoy touch.
func (d *DecoySet) RecordHit() { d.hits.Add(1) }

// HitCount reports how many hits were recorded.
func (d *DecoySet) HitCount() int { return int(d.hits.Load()) }
