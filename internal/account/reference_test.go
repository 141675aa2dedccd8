package account

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"funabuse/internal/race"
	"funabuse/internal/simrand"
)

// referenceStore is the store as it stood before the slab: one heap record
// per account behind a map, and an eviction that sorts the whole population
// by (lastSeen, key) with time.Time compares. It is the executable form of
// the documented eviction order, kept as the model the slab store is held
// equal to. The one rule it did not have is the self-eviction return.
type referenceStore struct {
	cfg      Config
	accounts map[string]*referenceRecord
	byTier   [NumTiers]int

	created, evicted, promotions uint64
}

type referenceRecord struct {
	createdAt, lastSeen         time.Time
	requests, bookings, denials uint64
	tier                        Tier
}

func newReferenceStore(cfg Config) *referenceStore {
	cfg.normalize()
	return &referenceStore{cfg: cfg, accounts: make(map[string]*referenceRecord)}
}

func (s *referenceStore) insert(key string, createdAt, now time.Time) *referenceRecord {
	rec := &referenceRecord{createdAt: createdAt, lastSeen: now, tier: Guest}
	s.accounts[key] = rec
	s.byTier[Guest]++
	s.created++
	if len(s.accounts) > s.cfg.MaxAccounts {
		s.evict()
		if s.accounts[key] != rec {
			return nil
		}
	}
	return rec
}

func (s *referenceStore) promote(rec *referenceRecord) {
	tiers := Store{cfg: s.cfg}
	if t := tiers.tierFor(rec.lastSeen.Sub(rec.createdAt), rec.bookings); t > rec.tier {
		s.byTier[rec.tier]--
		s.byTier[t]++
		rec.tier = t
		s.promotions++
	}
}

func (s *referenceStore) Observe(key string, now time.Time, booked, denied bool) {
	if key == "" {
		return
	}
	rec := s.accounts[key]
	if rec == nil {
		if rec = s.insert(key, now, now); rec == nil {
			return
		}
	}
	if now.After(rec.lastSeen) {
		rec.lastSeen = now
	}
	rec.requests++
	if booked {
		rec.bookings++
	}
	if denied {
		rec.denials++
	}
	s.promote(rec)
}

func (s *referenceStore) Register(key string, createdAt time.Time, bookings uint64, now time.Time) {
	if key == "" {
		return
	}
	rec := s.accounts[key]
	if rec == nil {
		if rec = s.insert(key, createdAt, now); rec == nil {
			return
		}
	}
	if createdAt.Before(rec.createdAt) {
		rec.createdAt = createdAt
	}
	if now.After(rec.lastSeen) {
		rec.lastSeen = now
	}
	if bookings > rec.bookings {
		rec.bookings = bookings
	}
	s.promote(rec)
}

func (s *referenceStore) evict() {
	target := s.cfg.MaxAccounts * 3 / 4
	if target < 1 {
		target = 1
	}
	type victim struct {
		key string
		at  time.Time
	}
	victims := make([]victim, 0, len(s.accounts))
	for k, rec := range s.accounts {
		victims = append(victims, victim{key: k, at: rec.lastSeen})
	}
	sort.Slice(victims, func(i, j int) bool {
		if !victims[i].at.Equal(victims[j].at) {
			return victims[i].at.Before(victims[j].at)
		}
		return victims[i].key < victims[j].key
	})
	for _, v := range victims {
		if len(s.accounts) <= target {
			break
		}
		s.byTier[s.accounts[v.key].tier]--
		delete(s.accounts, v.key)
		s.evicted++
	}
}

func (s *referenceStore) Snapshot(key string) (Snapshot, bool) {
	rec := s.accounts[key]
	if rec == nil {
		return Snapshot{}, false
	}
	return Snapshot{
		Key:       key,
		CreatedAt: rec.createdAt,
		LastSeen:  rec.lastSeen,
		Requests:  rec.requests,
		Bookings:  rec.bookings,
		Denials:   rec.denials,
		Tier:      rec.tier,
	}, true
}

// TestStoreMatchesReference is the model test for the slab store: twenty
// seeded streams of Observe and Register over a few hot keys and an endless
// supply of fresh ones, under budgets of 8 to 64, on a clock that steps
// forward, stalls (so the key tie-break decides) and steps back (so an
// insert can be its own victim). After every operation the counters, the
// per-tier counts and the touched key's snapshot must equal the reference;
// every key ever used is compared on a sweep every thousand operations.
func TestStoreMatchesReference(t *testing.T) {
	const seeds, ops = 20, 20_000
	cfg := Config{
		memberT: Threshold{MinAge: time.Hour, MinBookings: 1},
		silverT: Threshold{MinAge: 6 * time.Hour, MinBookings: 3},
		goldT:   Threshold{MinAge: 24 * time.Hour, MinBookings: 6},
	}
	var selfEvictions, stalls, golds int
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := simrand.New(seed)
		cfg.MaxAccounts = rng.IntBetween(8, 64)
		got, want := NewStore(cfg), newReferenceStore(cfg)
		hot := make([]string, rng.IntBetween(2, cfg.MaxAccounts/2))
		for i := range hot {
			hot[i] = fmt.Sprintf("hot-%d", i)
		}
		seen := slices.Clone(hot)
		now := t0
		compareKey := func(op int, key string) bool {
			g, gok := got.Snapshot(key)
			w, wok := want.Snapshot(key)
			if g != w || gok != wok {
				t.Fatalf("seed %d op %d key %q: snapshot %+v/%v, reference %+v/%v", seed, op, key, g, gok, w, wok)
			}
			return gok
		}
		for op := range ops {
			switch p := rng.Float64(); {
			case p < 0.15:
				stalls++
			case p < 0.17:
				now = now.Add(-time.Duration(rng.Intn(int(72 * time.Hour))))
			default:
				now = now.Add(time.Duration(rng.Intn(int(2 * time.Hour))))
			}
			var key string
			switch p := rng.Float64(); {
			case p < 0.35:
				key = simrand.Pick(rng, hot)
			case p < 0.50:
				key = simrand.Pick(rng, seen[max(0, len(seen)-cfg.MaxAccounts):])
			default:
				// Descending names, so key order disagrees with slot order.
				key = fmt.Sprintf("c-%06d", ops-op)
				seen = append(seen, key)
			}
			if rng.Bool(0.15) {
				createdAt := now.Add(-time.Duration(rng.Intn(int(48 * time.Hour))))
				bookings := uint64(rng.Intn(8))
				got.Register(key, createdAt, bookings, now)
				want.Register(key, createdAt, bookings, now)
			} else {
				booked, denied := rng.Bool(0.3), rng.Bool(0.2)
				got.Observe(key, now, booked, denied)
				want.Observe(key, now, booked, denied)
			}

			if got.Len() != len(want.accounts) || got.Created() != want.created ||
				got.Evicted() != want.evicted || got.Promotions() != want.promotions {
				t.Fatalf("seed %d op %d: len/created/evicted/promotions %d/%d/%d/%d, reference %d/%d/%d/%d", seed, op,
					got.Len(), got.Created(), got.Evicted(), got.Promotions(),
					len(want.accounts), want.created, want.evicted, want.promotions)
			}
			for tier := Guest; tier < NumTiers; tier++ {
				if got.TierCount(tier) != want.byTier[tier] {
					t.Fatalf("seed %d op %d: %d %v accounts, reference %d", seed, op, got.TierCount(tier), tier, want.byTier[tier])
				}
			}
			if !compareKey(op, key) {
				selfEvictions++
			}
			golds += got.TierCount(Gold)
			if op%1000 == 999 {
				for _, k := range seen {
					compareKey(op, k)
				}
			}
		}
		if got.Evicted() == 0 || got.Promotions() == 0 {
			t.Fatalf("seed %d: stream forced %d evictions and %d promotions, want both", seed, got.Evicted(), got.Promotions())
		}
	}
	if selfEvictions == 0 || stalls == 0 || golds == 0 {
		t.Fatalf("streams exercised %d self-evictions, %d stalled instants and gold accounts on %d operations, want all three", selfEvictions, stalls, golds)
	}
	t.Logf("%d operations, %d self-evicted inserts, %d stalled instants", seeds*ops, selfEvictions, stalls)
}

// TestSelfEvictedInsertLeavesNoGhost pins the self-eviction rule. A veteran
// registered into a full store with a now older than everything in it is
// the eviction's first victim; the store used to go on promoting the
// detached record, so the gold gauge counted an account it did not hold.
func TestSelfEvictedInsertLeavesNoGhost(t *testing.T) {
	s := NewStore(Config{MaxAccounts: 4})
	guests := []string{"g0", "g1", "g2", "g3"}
	for i, k := range guests {
		s.Observe(k, t0.Add(time.Duration(10+i)*time.Hour), false, false)
	}
	s.Register("vet", t0.Add(-400*24*time.Hour), 30, t0)

	if _, ok := s.Snapshot("vet"); ok {
		t.Fatal("the veteran, last seen before every guest, survived its own eviction")
	}
	if s.Len() != 3 || s.TierCount(Guest) != 3 || s.TierCount(Gold) != 0 || s.Promotions() != 0 {
		t.Fatalf("len %d, guests %d, gold %d, promotions %d; want 3, 3, 0, 0",
			s.Len(), s.TierCount(Guest), s.TierCount(Gold), s.Promotions())
	}
	var recount [NumTiers]int
	for _, k := range append(guests, "vet") {
		if snap, ok := s.Snapshot(k); ok {
			recount[snap.Tier]++
		}
	}
	sum := 0
	for tier := Guest; tier < NumTiers; tier++ {
		if s.TierCount(tier) != recount[tier] {
			t.Fatalf("%v: TierCount %d, snapshots say %d", tier, s.TierCount(tier), recount[tier])
		}
		sum += s.TierCount(tier)
	}
	if sum != s.Len() {
		t.Fatalf("tier counts sum to %d, store holds %d", sum, s.Len())
	}

	// The same through Observe: a request stamped before the cut.
	s.Observe("g4", t0.Add(14*time.Hour), false, false)
	s.Observe("late", t0, true, true)
	if _, ok := s.Snapshot("late"); ok || s.Len() != 3 || s.TierCount(Guest) != 3 {
		t.Fatalf("self-evicted observe left len %d, guests %d", s.Len(), s.TierCount(Guest))
	}
}

// TestObserveEvictSteadyStateAllocs pins the insert-and-evict path at zero
// allocations once the store has been through its first eviction: the
// record and its key land in a freed slot, the index reuses the buckets its
// deletes emptied, and the selection runs in the scratch sized by that
// first call.
func TestObserveEvictSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	const budget, runs = 256, 1000
	s := NewStore(Config{MaxAccounts: budget})
	keys := make([]string, 2*budget+runs+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("fresh-%06d", i)
	}
	next := 0
	observe := func() {
		s.Observe(keys[next], t0.Add(time.Duration(next)*time.Second), false, false)
		next++
	}
	for range 2 * budget {
		observe()
	}
	before := s.Evicted()
	if avg := testing.AllocsPerRun(runs, observe); avg != 0 {
		t.Fatalf("Observe of a fresh key at budget allocates %v/op, want 0", avg)
	}
	if evictions := (s.Evicted() - before) / (budget/4 + 1); evictions < 10 {
		t.Fatalf("measured window held %d evictions, want several", evictions)
	}
	if s.Len() > budget || s.recs.Slots() > budget+1 {
		t.Fatalf("store holds %d accounts in %d slots, budget %d", s.Len(), s.recs.Slots(), budget)
	}
}
