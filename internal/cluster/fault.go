package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"funabuse/internal/faultinject"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

// LinkCut severs one directed gossip link for the schedule's down
// windows: while down, every fetch by node From of node To's snapshot
// fails with faultinject.ErrInjected. From or To of -1 wildcards that
// side, and because each direction is cut independently the plan can
// express asymmetric partitions — B can no longer hear A while A still
// hears B. Schedules are pure functions of the clock, so cuts replay
// identically whatever order fetches race in.
type LinkCut struct {
	From, To int
	Schedule faultinject.Schedule
}

// cuts reports whether this cut severs the (from, to) fetch at t.
func (l LinkCut) cuts(from, to int, t time.Time) bool {
	if l.From != -1 && l.From != from {
		return false
	}
	if l.To != -1 && l.To != to {
		return false
	}
	return l.Schedule.DownAt(t)
}

// PartitionLinks builds the directed cuts of a full two-sided partition:
// every cross-group link, both directions, down for the schedule's
// windows. Intra-group gossip keeps flowing — each side of the partition
// still converges internally, which is what makes the healed-partition
// timeline interesting.
func PartitionLinks(groupA, groupB []int, sched faultinject.Schedule) []LinkCut {
	cuts := make([]LinkCut, 0, 2*len(groupA)*len(groupB))
	for _, a := range groupA {
		for _, b := range groupB {
			cuts = append(cuts,
				LinkCut{From: a, To: b, Schedule: sched},
				LinkCut{From: b, To: a, Schedule: sched})
		}
	}
	return cuts
}

// FaultConfig is a FaultTransport's deterministic fault plan. All rates
// are probabilities in [0,1] drawn independently per fetch from the
// seeded stream; faults compose by precedence cut > drop > delay >
// duplicate > stale, so at most one fires per fetch.
type FaultConfig struct {
	// Seed seeds the per-fetch fault stream; 0 is a valid (fixed) seed.
	Seed uint64
	// Clock evaluates link-cut schedules and timestamps the publish
	// history delays are served from; nil selects the real clock.
	// Deterministic runs pass the fleet's shared simclock.Manual.
	Clock simclock.Clock

	// DropRate fails the fetch outright with faultinject.ErrInjected.
	DropRate float64
	// DelayRate serves, instead of the latest snapshot, the newest one
	// published at least Delay ago — gossip that left on time but is
	// still in flight. A fetch delayed past the whole retained history
	// fails with ErrNotPublished, as if nothing had arrived yet.
	DelayRate float64
	Delay     time.Duration
	// DupRate re-serves exactly the snapshot this (from, to) pair was
	// served last — a duplicated datagram. The receiver's per-origin
	// high-water marks must make this a no-op; the duplicate-storm test
	// pins that. A pair with no serve history falls through to a normal
	// fetch.
	DupRate float64
	// StaleRate serves the oldest snapshot still retained for the node —
	// a maximally lagged read.
	StaleRate float64

	// Links are the directed link cuts, evaluated before any draw.
	Links []LinkCut
}

// faultHistory is how many published snapshots a FaultTransport retains
// per node for delayed and stale serves.
const faultHistory = 32

// FaultStats counts what a FaultTransport actually did.
type FaultStats struct {
	// Fetches counts fault-plan evaluations (one per FetchFrom).
	Fetches uint64
	// Cuts counts fetches failed by a link-cut window.
	Cuts uint64
	// Drops counts fetches failed by a DropRate draw.
	Drops uint64
	// Delays counts fetches served a Delay-old snapshot.
	Delays uint64
	// Dups counts fetches re-served their previous snapshot.
	Dups uint64
	// Stales counts fetches served the oldest retained snapshot.
	Stales uint64
}

// timedSnap is one publish-history entry.
type timedSnap struct {
	at   time.Time
	snap Snapshot
}

// FaultTransport wraps any Transport with a seeded, composable fault
// plan: directed link cuts from time-keyed schedules, probabilistic
// drops, delayed and maximally-stale serves out of a bounded publish
// history, and duplicate re-delivery. It is how the partition experiment
// turns the clean loopback HTTPTransport into a lossy, laggy network
// while staying bit-deterministic: schedule cuts are pure functions of
// the (virtual) clock, and probabilistic draws come from one seeded
// stream serialized under a mutex — the anti-entropy loop fetches
// serially, so the draw sequence is reproducible per seed.
type FaultTransport struct {
	inner Transport
	cfg   FaultConfig
	clock simclock.Clock

	mu         sync.Mutex
	rng        *simrand.RNG
	hist       map[int][]timedSnap
	lastServed map[[2]int]Snapshot

	fetches atomic.Uint64
	cut     atomic.Uint64
	dropped atomic.Uint64
	delayed atomic.Uint64
	duped   atomic.Uint64
	staled  atomic.Uint64
}

// NewFaultTransport wraps inner with the fault plan.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	return &FaultTransport{
		inner:      inner,
		cfg:        cfg,
		clock:      cfg.Clock,
		rng:        simrand.New(cfg.Seed).Derive("cluster:fault"),
		hist:       make(map[int][]timedSnap),
		lastServed: make(map[[2]int]Snapshot),
	}
}

// Publish implements Transport: the snapshot is recorded in the bounded
// history (for delayed and stale serves) and forwarded to the inner
// transport.
func (t *FaultTransport) Publish(snap Snapshot) {
	entry := timedSnap{at: t.clock.Now(), snap: snap.Clone()}
	t.mu.Lock()
	h := append(t.hist[snap.Node], entry)
	if len(h) > faultHistory {
		h = h[len(h)-faultHistory:]
	}
	t.hist[snap.Node] = h
	t.mu.Unlock()
	t.inner.Publish(snap)
}

// Fetch implements Transport over FetchFrom with no fetcher identity, so
// only wildcard link cuts apply.
func (t *FaultTransport) Fetch(node int) (Snapshot, bool) {
	snap, err := t.FetchFrom(-1, node)
	return snap, err == nil
}

// FetchFrom implements PeerFetcher: it evaluates the fault plan for the
// (from, to) fetch at the clock's current instant and either fails the
// fetch, serves it from the publish history, or passes it to the inner
// transport.
func (t *FaultTransport) FetchFrom(from, to int) (Snapshot, error) {
	t.fetches.Add(1)
	now := t.clock.Now()
	for _, l := range t.cfg.Links {
		if l.cuts(from, to, now) {
			t.cut.Add(1)
			return Snapshot{}, faultinject.ErrInjected
		}
	}

	t.mu.Lock()
	drop := t.rng.Bool(t.cfg.DropRate)
	delay := t.rng.Bool(t.cfg.DelayRate)
	dup := t.rng.Bool(t.cfg.DupRate)
	stale := t.rng.Bool(t.cfg.StaleRate)
	t.mu.Unlock()

	switch {
	case drop:
		t.dropped.Add(1)
		return Snapshot{}, faultinject.ErrInjected
	case delay:
		t.delayed.Add(1)
		return t.serveDelayed(from, to, now)
	case dup:
		t.mu.Lock()
		snap, ok := t.lastServed[[2]int{from, to}]
		t.mu.Unlock()
		if ok {
			t.duped.Add(1)
			return snap, nil
		}
	case stale:
		t.staled.Add(1)
		return t.serveHistory(from, to, func(h []timedSnap) (timedSnap, bool) {
			return h[0], true
		})
	}
	snap, err := fetchVia(t.inner, from, to)
	if err == nil {
		t.recordServed(from, to, snap)
	}
	return snap, err
}

// serveDelayed serves the newest snapshot published at least Delay ago.
func (t *FaultTransport) serveDelayed(from, to int, now time.Time) (Snapshot, error) {
	cutoff := now.Add(-t.cfg.Delay)
	return t.serveHistory(from, to, func(h []timedSnap) (timedSnap, bool) {
		for i := len(h) - 1; i >= 0; i-- {
			if !h[i].at.After(cutoff) {
				return h[i], true
			}
		}
		return timedSnap{}, false
	})
}

// serveHistory serves one snapshot chosen from the node's publish
// history, recording it as the pair's last serve; an empty selection
// reads as nothing-arrived-yet.
func (t *FaultTransport) serveHistory(from, to int, pick func([]timedSnap) (timedSnap, bool)) (Snapshot, error) {
	t.mu.Lock()
	h := t.hist[to]
	var entry timedSnap
	ok := len(h) > 0
	if ok {
		entry, ok = pick(h)
	}
	if ok {
		t.lastServed[[2]int{from, to}] = entry.snap
	}
	t.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrNotPublished
	}
	return entry.snap, nil
}

// recordServed remembers the pair's last successful serve for DupRate.
func (t *FaultTransport) recordServed(from, to int, snap Snapshot) {
	t.mu.Lock()
	t.lastServed[[2]int{from, to}] = snap
	t.mu.Unlock()
}

// Stats snapshots the fault counters; exact when quiesced.
func (t *FaultTransport) Stats() FaultStats {
	return FaultStats{
		Fetches: t.fetches.Load(),
		Cuts:    t.cut.Load(),
		Drops:   t.dropped.Load(),
		Delays:  t.delayed.Load(),
		Dups:    t.duped.Load(),
		Stales:  t.staled.Load(),
	}
}

// fetchVia fetches through the richest interface the transport offers.
func fetchVia(tr Transport, from, to int) (Snapshot, error) {
	if pf, ok := tr.(PeerFetcher); ok {
		return pf.FetchFrom(from, to)
	}
	snap, ok := tr.Fetch(to)
	if !ok {
		return Snapshot{}, ErrNotPublished
	}
	return snap, nil
}
