// Package account is the persistent account-lifecycle store behind the
// loyalty-tier mitigations of the source paper's Section V: restrict
// attractive features to accounts with history, because history is the
// one signal an attacker cannot cheaply fake. Accounts are created on
// first sight, age on the shared simulation clock, accrue bookings and
// denials, and cross deterministic loyalty-tier thresholds
// (guest → member → silver → gold).
//
// The store is the write side of the gate's account layer: feeding
// observations into it belongs off the serving path (an OnDecision hook,
// as loadgen's target gate installs, or a log tail). The read side is TierOf, which
// the gate probes per request; it is a lock-shared table read returning an
// int, so the admitted hot path stays allocation-free.
//
// Memory is bounded: when an insert takes the store over its budget it
// deterministically evicts the least-recently-seen accounts (ties broken by
// key order) down to three quarters of the budget, so a registration flood
// cannot grow the store without limit — exactly the attack the budget
// models, since fake account registration is the attacker cost lever the
// economics scenario charges for.
//
// What is exact: the victim set. Records live by value in a keytab.Table,
// which holds each key's bytes in the record's slot; an eviction selects —
// an nth-element partition, not a sort — the len − 3/4·budget accounts with
// the oldest lastSeen.UnixNano(), reading keys only to order two accounts
// last seen at the same instant. The order on the wall instant is exact for
// any clock reading between the years 1678 and 2262. What is amortised:
// that one pass over the slab, paid once per quarter budget of inserts, so
// an insert under a saturated budget costs O(1) amortised and, after the
// first eviction has sized the scratch and the free list, allocates
// nothing: the record and its key land in a slot an eviction freed. The
// slab grows by a quarter at a time but never past budget+1 slots — the one
// account over budget that exists while its own eviction runs. The hit path
// (Observe of a known key, TierOf) never moves or links anything: recency
// is read from the records when an eviction needs it, not maintained on
// every touch.
//
// The self-eviction rule: an account inserted with a now older than the
// eviction cut — a late-stamped request, a member registered as of long
// ago into a full store — is the oldest entry of the eviction it triggers.
// It is created, counted in Created and Evicted, and gone; Observe and
// Register return without touching it, so no tier gauge counts an account
// the store does not hold.
package account

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"funabuse/internal/keytab"
)

// Tier is a loyalty tier. Tiers only rise: age and accrued bookings are
// monotone, so an account's tier is a deterministic function of its
// history that never demotes.
type Tier int

// Loyalty tiers in ascending order.
const (
	Guest Tier = iota
	Member
	Silver
	Gold
	NumTiers
)

// String names the tier as used in telemetry labels and reports.
func (t Tier) String() string {
	switch t {
	case Guest:
		return "guest"
	case Member:
		return "member"
	case Silver:
		return "silver"
	case Gold:
		return "gold"
	default:
		return "unknown"
	}
}

// Threshold is one tier's entry requirement: the account must have both
// aged past MinAge and accrued at least MinBookings.
type Threshold struct {
	MinAge      time.Duration
	MinBookings uint64
}

// DefaultMaxAccounts bounds the store when Config.MaxAccounts is zero.
const DefaultMaxAccounts = 1 << 20

// Config tunes a Store. The zero value selects the default memory budget.
type Config struct {
	// MaxAccounts is the memory budget; exceeding it evicts the
	// least-recently-seen accounts down to 3/4 of the budget. Zero
	// selects DefaultMaxAccounts.
	MaxAccounts int

	// memberT, silverT and goldT are the tier entry requirements; a zero
	// threshold selects that tier's default. Only in-package tests set
	// them, to walk the ladder in hours rather than months.
	memberT, silverT, goldT Threshold
}

// Default tier thresholds: membership takes three days and one booking,
// silver a month of history, gold half a year — long enough that a
// freshly registered attacker account stays a guest for any plausible
// attack campaign.
var (
	DefaultMemberT = Threshold{MinAge: 72 * time.Hour, MinBookings: 1}
	DefaultSilverT = Threshold{MinAge: 30 * 24 * time.Hour, MinBookings: 5}
	DefaultGoldT   = Threshold{MinAge: 180 * 24 * time.Hour, MinBookings: 20}
)

func (c *Config) normalize() {
	if c.MaxAccounts <= 0 {
		c.MaxAccounts = DefaultMaxAccounts
	}
	// Slots are int32 and an insert occupies one slot over budget.
	c.MaxAccounts = min(c.MaxAccounts, math.MaxInt32-1)
	zero := Threshold{}
	if c.memberT == zero {
		c.memberT = DefaultMemberT
	}
	if c.silverT == zero {
		c.silverT = DefaultSilverT
	}
	if c.goldT == zero {
		c.goldT = DefaultGoldT
	}
}

// record is one account's mutable state, held by value in the store's table
// and guarded by the store mutex.
type record struct {
	createdAt time.Time
	lastSeen  time.Time
	requests  uint64
	bookings  uint64
	denials   uint64
	tier      Tier
}

// Snapshot is one account's state at a point in time, for detectors,
// reports and tests.
type Snapshot struct {
	Key       string
	CreatedAt time.Time
	LastSeen  time.Time
	Requests  uint64
	Bookings  uint64
	Denials   uint64
	Tier      Tier
}

// Age is the account's observed lifetime: last seen minus created.
func (s Snapshot) Age() time.Duration { return s.LastSeen.Sub(s.CreatedAt) }

// Store is a concurrent, bounded-memory account store. The hot read path
// (TierOf) takes the read lock only; all mutation happens through Observe
// and Register, which the serving path never calls.
type Store struct {
	cfg Config

	mu     sync.RWMutex
	recs   *keytab.Table[record] // never more than MaxAccounts+1 slots
	byTier [NumTiers]int

	created    atomic.Uint64
	evicted    atomic.Uint64
	promotions atomic.Uint64
}

// NewStore builds a Store.
func NewStore(cfg Config) *Store {
	cfg.normalize()
	return &Store{cfg: cfg, recs: keytab.New[record](cfg.MaxAccounts + 1)}
}

// tierFor derives the tier an account with the given age and bookings has
// earned. Deterministic: same history, same tier.
func (s *Store) tierFor(age time.Duration, bookings uint64) Tier {
	switch {
	case age >= s.cfg.goldT.MinAge && bookings >= s.cfg.goldT.MinBookings:
		return Gold
	case age >= s.cfg.silverT.MinAge && bookings >= s.cfg.silverT.MinBookings:
		return Silver
	case age >= s.cfg.memberT.MinAge && bookings >= s.cfg.memberT.MinBookings:
		return Member
	default:
		return Guest
	}
}

// TierOf resolves key's loyalty tier; unknown (or empty) keys are guests.
// This is the gate's per-request probe: a read-locked table lookup returning
// an int, allocation-free. It satisfies httpgate.AccountLookup.
func (s *Store) TierOf(key string) int {
	if key == "" {
		return int(Guest)
	}
	t := Guest
	s.mu.RLock()
	if slot, ok := s.recs.FindString(key); ok {
		t = s.recs.At(slot).tier
	}
	s.mu.RUnlock()
	return int(t)
}

// Observe records one request by key at now: the account is created on
// first sight, its last-seen advances, request/booking/denial counters
// accrue, and its tier is re-derived (promotions never demote). Empty keys
// are anonymous traffic and are ignored.
func (s *Store) Observe(key string, now time.Time, booked, denied bool) {
	if key == "" {
		return
	}
	s.mu.Lock()
	slot, ok := s.recs.FindString(key)
	if !ok {
		if slot, ok = s.insertLocked(key, now, now); !ok {
			s.mu.Unlock()
			return
		}
	}
	rec := s.recs.At(slot)
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
	if t := s.tierFor(rec.lastSeen.Sub(rec.createdAt), rec.bookings); t > rec.tier {
		s.promoteLocked(rec, t)
	}
	s.mu.Unlock()
}

// Register seeds an account with pre-existing history — the loyalty
// members the operator already knows, created createdAt with bookings
// accrued. The tier is derived from that history as of now. Registering
// an existing key only extends its history backwards, never shrinks it.
func (s *Store) Register(key string, createdAt time.Time, bookings uint64, now time.Time) {
	if key == "" {
		return
	}
	s.mu.Lock()
	slot, ok := s.recs.FindString(key)
	if !ok {
		if slot, ok = s.insertLocked(key, createdAt, now); !ok {
			s.mu.Unlock()
			return
		}
	}
	rec := s.recs.At(slot)
	if createdAt.Before(rec.createdAt) {
		rec.createdAt = createdAt
	}
	if now.After(rec.lastSeen) {
		rec.lastSeen = now
	}
	if bookings > rec.bookings {
		rec.bookings = bookings
	}
	if t := s.tierFor(rec.lastSeen.Sub(rec.createdAt), rec.bookings); t > rec.tier {
		s.promoteLocked(rec, t)
	}
	s.mu.Unlock()
}

// insertLocked creates key's account as a guest last seen at now, in a
// freed slot when there is one. An insert that takes the store over its
// budget evicts at once, and an account whose now is older than the
// eviction cut is then its own victim: ok is false and the caller must
// leave the slot alone. Caller holds the write lock.
func (s *Store) insertLocked(key string, createdAt, now time.Time) (slot int32, ok bool) {
	slot = s.recs.InsertString(key)
	*s.recs.At(slot) = record{createdAt: createdAt, lastSeen: now, tier: Guest}
	s.byTier[Guest]++
	s.created.Add(1)
	if s.recs.Len() > s.cfg.MaxAccounts {
		s.evictLocked()
	}
	return slot, s.recs.Used(slot)
}

// promoteLocked raises rec to the tier its history has earned; tiers only
// rise, and the callers check that inline so the common no-change request
// pays no call.
func (s *Store) promoteLocked(rec *record, t Tier) {
	s.byTier[rec.tier]--
	s.byTier[t]++
	rec.tier = t
	s.promotions.Add(1)
}

// evictLocked drops the least-recently-seen accounts (ties broken by key
// order, so eviction is deterministic) until the store is at 3/4 of its
// budget. Caller holds the write lock.
func (s *Store) evictLocked() {
	k := s.recs.Len() - max(s.cfg.MaxAccounts*3/4, 1)
	s.recs.EvictOldest(k, func(r *record) (int64, int64) { return r.lastSeen.UnixNano(), 0 },
		func(_ int32, r *record) { s.byTier[r.tier]-- })
	s.evicted.Add(uint64(k))
}

// Snapshot returns key's state, reporting whether the account exists.
func (s *Store) Snapshot(key string) (Snapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	slot, ok := s.recs.FindString(key)
	if !ok {
		return Snapshot{}, false
	}
	rec := s.recs.At(slot)
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

// Len reports how many accounts the store holds.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recs.Len()
}

// TierCount reports how many accounts currently hold tier t.
func (s *Store) TierCount(t Tier) int {
	if t < 0 || t >= NumTiers {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byTier[t]
}

// Created, Evicted and Promotions expose the lifetime counters.
func (s *Store) Created() uint64    { return s.created.Load() }
func (s *Store) Evicted() uint64    { return s.evicted.Load() }
func (s *Store) Promotions() uint64 { return s.promotions.Load() }
