package account

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2023, time.March, 1, 0, 0, 0, 0, time.UTC)

func TestFirstSightCreatesGuest(t *testing.T) {
	s := NewStore(Config{})
	if got := s.TierOf("u1"); got != int(Guest) {
		t.Fatalf("unknown account tier %d, want guest", got)
	}
	s.Observe("u1", t0, false, false)
	snap, ok := s.Snapshot("u1")
	if !ok {
		t.Fatal("account not created on first sight")
	}
	if snap.Tier != Guest || !snap.CreatedAt.Equal(t0) || snap.Requests != 1 {
		t.Fatalf("first-sight snapshot %+v", snap)
	}
	if s.Created() != 1 || s.Len() != 1 {
		t.Fatalf("created %d len %d", s.Created(), s.Len())
	}
}

func TestEmptyKeyIgnored(t *testing.T) {
	s := NewStore(Config{})
	s.Observe("", t0, false, false)
	s.Register("", t0, 10, t0)
	if s.Len() != 0 {
		t.Fatalf("anonymous traffic created %d accounts", s.Len())
	}
	if got := s.TierOf(""); got != int(Guest) {
		t.Fatalf("empty key tier %d", got)
	}
}

func TestTierThresholdsDeterministic(t *testing.T) {
	s := NewStore(Config{})
	// One booking on day zero: still a guest (no age).
	s.Observe("u", t0, true, false)
	if got := Tier(s.TierOf("u")); got != Guest {
		t.Fatalf("day-0 tier %v", got)
	}
	// Age past member threshold with the booking already accrued.
	s.Observe("u", t0.Add(DefaultMemberT.MinAge), false, false)
	if got := Tier(s.TierOf("u")); got != Member {
		t.Fatalf("post-age tier %v, want member", got)
	}
	// Age alone without bookings is not enough for silver.
	s.Observe("u", t0.Add(DefaultSilverT.MinAge), false, false)
	if got := Tier(s.TierOf("u")); got != Member {
		t.Fatalf("aged member without bookings became %v", got)
	}
	// Accrue bookings to cross silver, then gold.
	for i := uint64(1); i < DefaultSilverT.MinBookings; i++ {
		s.Observe("u", t0.Add(DefaultSilverT.MinAge), true, false)
	}
	if got := Tier(s.TierOf("u")); got != Silver {
		t.Fatalf("tier %v, want silver", got)
	}
	for i := DefaultSilverT.MinBookings; i < DefaultGoldT.MinBookings; i++ {
		s.Observe("u", t0.Add(DefaultGoldT.MinAge), true, false)
	}
	if got := Tier(s.TierOf("u")); got != Gold {
		t.Fatalf("tier %v, want gold", got)
	}
	if s.Promotions() != 3 {
		t.Fatalf("promotions %d, want 3", s.Promotions())
	}
}

func TestRegisterSeedsHistory(t *testing.T) {
	s := NewStore(Config{})
	s.Register("vip", t0.Add(-365*24*time.Hour), 25, t0)
	if got := Tier(s.TierOf("vip")); got != Gold {
		t.Fatalf("seeded veteran tier %v, want gold", got)
	}
	// Re-registering with lesser history never demotes.
	s.Register("vip", t0, 0, t0)
	if got := Tier(s.TierOf("vip")); got != Gold {
		t.Fatalf("re-register demoted to %v", got)
	}
	if s.Created() != 1 {
		t.Fatalf("created %d, want 1", s.Created())
	}
}

func TestDenialsAccrue(t *testing.T) {
	s := NewStore(Config{})
	s.Observe("u", t0, false, true)
	s.Observe("u", t0.Add(time.Second), false, true)
	s.Observe("u", t0.Add(2*time.Second), false, false)
	snap, _ := s.Snapshot("u")
	if snap.Requests != 3 || snap.Denials != 2 || snap.Bookings != 0 {
		t.Fatalf("snapshot %+v", snap)
	}
}

func TestBoundedMemoryEvictsOldestDeterministically(t *testing.T) {
	s := NewStore(Config{MaxAccounts: 8})
	for i := 0; i < 9; i++ {
		s.Observe(fmt.Sprintf("u%02d", i), t0.Add(time.Duration(i)*time.Minute), false, false)
	}
	// Crossing the budget evicts down to 3/4 of it: 6 accounts survive,
	// and the survivors are the most recently seen.
	if s.Len() != 6 {
		t.Fatalf("len after eviction %d, want 6", s.Len())
	}
	if s.Evicted() != 3 {
		t.Fatalf("evicted %d, want 3", s.Evicted())
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.Snapshot(fmt.Sprintf("u%02d", i)); ok {
			t.Fatalf("oldest account u%02d survived eviction", i)
		}
	}
	for i := 3; i < 9; i++ {
		if _, ok := s.Snapshot(fmt.Sprintf("u%02d", i)); !ok {
			t.Fatalf("recent account u%02d evicted", i)
		}
	}
}

func TestEvictionTieBreaksByKey(t *testing.T) {
	// All accounts share one last-seen instant; eviction must still be
	// deterministic, dropping the smallest keys first.
	s := NewStore(Config{MaxAccounts: 4})
	for _, k := range []string{"d", "b", "e", "a", "c"} {
		s.Observe(k, t0, false, false)
	}
	if s.Len() != 3 {
		t.Fatalf("len %d, want 3", s.Len())
	}
	for _, k := range []string{"a", "b"} {
		if _, ok := s.Snapshot(k); ok {
			t.Fatalf("key %q should have been evicted", k)
		}
	}
	for _, k := range []string{"c", "d", "e"} {
		if _, ok := s.Snapshot(k); !ok {
			t.Fatalf("key %q should have survived", k)
		}
	}
}

func TestTierCountsTrackPromotionsAndEviction(t *testing.T) {
	s := NewStore(Config{MaxAccounts: 4})
	s.Register("vip", t0.Add(-400*24*time.Hour), 30, t0)
	s.Observe("g1", t0.Add(time.Second), false, false)
	if s.TierCount(Gold) != 1 || s.TierCount(Guest) != 1 {
		t.Fatalf("tier counts gold=%d guest=%d", s.TierCount(Gold), s.TierCount(Guest))
	}
	for i := 0; i < 4; i++ {
		s.Observe(fmt.Sprintf("n%d", i), t0.Add(time.Duration(i+2)*time.Second), false, false)
	}
	total := 0
	for tier := Guest; tier < NumTiers; tier++ {
		total += s.TierCount(tier)
	}
	if total != s.Len() {
		t.Fatalf("tier counts sum %d != len %d after eviction", total, s.Len())
	}
}

func TestConcurrentObserveAndTierOf(t *testing.T) {
	s := NewStore(Config{MaxAccounts: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("u%d", (w*31+i)%96)
				s.Observe(key, t0.Add(time.Duration(i)*time.Second), i%7 == 0, false)
				_ = s.TierOf(key)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 64 {
		t.Fatalf("budget exceeded: %d accounts", s.Len())
	}
}
