package mitigate

import (
	"sort"
	"sync"
	"time"

	"funabuse/internal/simrand"
)

// DecoySet is live honeypot inventory: a seeded fraction of the target's
// bookable resource references are decoys — they look identical to real
// inventory from the outside, but booking one earns the attacker nothing
// and hands the defender hard evidence of enumeration (honest clients
// book the references they were issued; only enumeration walks into a
// decoy). This moves the offline Honeypot experiment's economics into
// the live serving path: hits are journaled and feed the rule deployer.
//
// Selection is deterministic for a given (seed, refs, fraction), so a
// scenario's decoy layout is identical across reruns and worker counts.
// Membership is immutable after construction and read lock-free; the hit
// journal is mutex-guarded, ordered by recording order.
type DecoySet struct {
	decoys map[string]bool

	mu   sync.Mutex
	hits []DecoyHit
}

// DecoyHit is one journaled decoy touch.
type DecoyHit struct {
	// Ref is the decoy resource reference.
	Ref string
	// FP and Key attribute the hit (fingerprint hash, client key).
	FP  uint64
	Key string
	At  time.Time
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

// Size reports how many refs are decoys.
func (d *DecoySet) Size() int { return len(d.decoys) }

// Refs returns the decoy references in sorted order.
func (d *DecoySet) Refs() []string {
	out := make([]string, 0, len(d.decoys))
	for ref := range d.decoys {
		out = append(out, ref)
	}
	sort.Strings(out)
	return out
}

// RecordHit journals one decoy touch.
func (d *DecoySet) RecordHit(ref string, fp uint64, key string, at time.Time) {
	d.mu.Lock()
	d.hits = append(d.hits, DecoyHit{Ref: ref, FP: fp, Key: key, At: at})
	d.mu.Unlock()
}

// Hits returns a copy of the journal in recording order.
func (d *DecoySet) Hits() []DecoyHit {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]DecoyHit(nil), d.hits...)
}

// HitCount reports how many hits were journaled.
func (d *DecoySet) HitCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.hits)
}
