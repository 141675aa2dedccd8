package mitigate

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"funabuse/internal/booking"
	"funabuse/internal/names"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

var t0 = time.Date(2022, time.December, 1, 0, 0, 0, 0, time.UTC)

func TestKeyedLimiterEnforcesPerKey(t *testing.T) {
	l := NewKeyedLimiter(time.Hour, 2)
	if !l.Allow("a", t0) || !l.Allow("a", t0.Add(time.Minute)) {
		t.Fatal("within-limit attempts denied")
	}
	if l.Allow("a", t0.Add(2*time.Minute)) {
		t.Fatal("over-limit attempt allowed")
	}
	if !l.Allow("b", t0.Add(2*time.Minute)) {
		t.Fatal("independent key denied")
	}
	if l.Allow("a", t0.Add(3*time.Minute)) || !l.Allow("b", t0.Add(3*time.Minute)) {
		t.Fatal("a denial on one key leaked into the other")
	}
}

func TestKeyedLimiterWindowSlides(t *testing.T) {
	l := NewKeyedLimiter(time.Hour, 1)
	if !l.Allow("k", t0) {
		t.Fatal("first denied")
	}
	if l.Allow("k", t0.Add(30*time.Minute)) {
		t.Fatal("second within window allowed")
	}
	if !l.Allow("k", t0.Add(61*time.Minute)) {
		t.Fatal("attempt after window denied")
	}
}

func TestKeyedLimiterDeniedDoesNotConsume(t *testing.T) {
	l := NewKeyedLimiter(time.Hour, 1)
	l.Allow("k", t0)
	for i := range 10 {
		l.Allow("k", t0.Add(time.Duration(i)*time.Minute))
	}
	// The single admitted event ages out after an hour regardless of the
	// denied attempts in between.
	if !l.Allow("k", t0.Add(61*time.Minute)) {
		t.Fatal("denied attempts extended the window")
	}
}

func TestKeyedLimiterNeverExceedsLimitProperty(t *testing.T) {
	f := func(limit uint8, steps []uint8) bool {
		lim := int(limit%5) + 1
		l := NewKeyedLimiter(time.Hour, lim)
		now := t0
		admitted := []time.Time{}
		for _, s := range steps {
			now = now.Add(time.Duration(s) * time.Minute)
			if l.Allow("k", now) {
				admitted = append(admitted, now)
				// Count admitted events in the trailing hour.
				count := 0
				for _, ts := range admitted {
					if ts.After(now.Add(-time.Hour)) || ts.Equal(now) {
						count++
					}
				}
				if count > lim {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockListTTL(t *testing.T) {
	b := NewBlockList(time.Hour)
	b.Block("fp:abc", t0)
	if !b.Blocked("fp:abc", t0.Add(30*time.Minute)) {
		t.Fatal("live rule did not block")
	}
	if b.Blocked("fp:abc", t0.Add(2*time.Hour)) {
		t.Fatal("expired rule still blocks")
	}
	if b.Len() != 0 {
		t.Fatalf("expired rule not pruned, Len=%d", b.Len())
	}
	if b.Hits() != 1 {
		t.Fatalf("Hits = %d", b.Hits())
	}
}

func TestBlockListNoTTL(t *testing.T) {
	b := NewBlockList(0)
	b.Block("ip:1.2.3.4", t0)
	if !b.Blocked("ip:1.2.3.4", t0.AddDate(1, 0, 0)) {
		t.Fatal("permanent rule expired")
	}
}

func TestBlockListRulesAddedCountsDistinct(t *testing.T) {
	b := NewBlockList(time.Hour)
	b.Block("a", t0)
	b.Block("a", t0.Add(time.Minute)) // refresh, not new
	b.Block("b", t0)
	if b.RulesAdded() != 2 {
		t.Fatalf("RulesAdded = %d", b.RulesAdded())
	}
	b.Unblock("a")
	if b.Blocked("a", t0) {
		t.Fatal("unblocked key still blocked")
	}
}

func TestCaptchaGateRates(t *testing.T) {
	g := NewCaptchaGate(simrand.New(1), withPassRates(0.95, 0.90), WithSolveCost(0.01))
	humanPass, botPass := 0, 0
	n := 20000
	for range n {
		if g.ChallengeHuman() {
			humanPass++
		}
		if g.ChallengeBot() {
			botPass++
		}
	}
	if rate := float64(humanPass) / float64(n); math.Abs(rate-0.95) > 0.01 {
		t.Fatalf("human pass rate %v", rate)
	}
	if rate := float64(botPass) / float64(n); math.Abs(rate-0.90) > 0.01 {
		t.Fatalf("bot pass rate %v", rate)
	}
	if math.Abs(g.BotSpendUSD()-float64(n)*0.01) > 1e-6 {
		t.Fatalf("bot spend %v", g.BotSpendUSD())
	}
}

func honeypotFixture(t *testing.T) (*Honeypot, *simclock.Manual) {
	t.Helper()
	clock := simclock.NewManual(t0)
	real := booking.NewSystem(clock, simrand.New(1), booking.DefaultConfig())
	decoy := booking.NewSystem(clock, simrand.New(2), booking.DefaultConfig())
	flights := []booking.Flight{{
		ID: "F1", Capacity: 100, Departure: t0.Add(7 * 24 * time.Hour),
	}}
	for _, f := range flights {
		real.AddFlight(f)
	}
	for _, f := range flights {
		decoy.AddFlight(f)
	}
	return NewHoneypot(real, decoy), clock
}

func holdReq(n int) booking.HoldRequest {
	g := names.NewGenerator(simrand.New(3))
	ps := make([]names.Identity, n)
	for i := range ps {
		ps[i] = g.Realistic()
	}
	return booking.HoldRequest{Flight: "F1", Passengers: ps, ActorID: "x"}
}

func TestHoneypotRoutesRedirectedToDecoy(t *testing.T) {
	h, _ := honeypotFixture(t)
	h.Redirect("attacker")
	if !h.IsRedirected("attacker") {
		t.Fatal("IsRedirected false")
	}
	hold, err := h.RequestHold("attacker", holdReq(6))
	if err != nil {
		t.Fatalf("decoy hold failed: %v", err)
	}
	if hold == nil || hold.NiP != 6 {
		t.Fatalf("decoy hold %+v", hold)
	}
	// Real inventory untouched.
	av, err := h.real.AvailabilityOf("F1")
	if err != nil {
		t.Fatal(err)
	}
	if av.Held != 0 || av.Available != 100 {
		t.Fatalf("real availability %+v", av)
	}
	dv, _ := h.Decoy().AvailabilityOf("F1")
	if dv.Held != 6 {
		t.Fatalf("decoy availability %+v", dv)
	}
	if h.DecoyHolds() != 1 {
		t.Fatalf("DecoyHolds = %d", h.DecoyHolds())
	}
}

func TestHoneypotRoutesOthersToReal(t *testing.T) {
	h, _ := honeypotFixture(t)
	if _, err := h.RequestHold("legit", holdReq(2)); err != nil {
		t.Fatal(err)
	}
	av, _ := h.real.AvailabilityOf("F1")
	if av.Held != 2 {
		t.Fatalf("real availability %+v", av)
	}
	if h.DecoyHolds() != 0 {
		t.Fatal("legit hold counted as decoy")
	}
}

func TestKeyedLimiterSweepEvictsStaleKeys(t *testing.T) {
	l := NewKeyedLimiter(time.Hour, 1)
	for i := range 100 {
		key := "k" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		l.Allow(key, t0)
		l.Allow(key, t0.Add(time.Minute)) // one denial per key
	}
	if len(l.events) == 0 {
		t.Fatal("nothing tracked before sweep")
	}
	l.Sweep(t0.Add(2 * time.Hour))
	if got := len(l.events); got != 0 {
		t.Fatalf("%d stale keys survived sweep", got)
	}
	// An evicted key starts afresh: its next attempt is admitted, and the
	// one after that is denied again.
	at := t0.Add(2 * time.Hour)
	if !l.Allow("kaa", at) || l.Allow("kaa", at.Add(time.Minute)) {
		t.Fatal("evicted key did not restart at a full allowance")
	}
}

func TestKeyedLimiterAutoSweepBoundsMemory(t *testing.T) {
	l := NewKeyedLimiter(time.Minute, 5)
	// A churning key space: each key is touched once and never again. The
	// periodic sweep inside Allow must keep the table near the live set.
	for i := range 20_000 {
		at := t0.Add(time.Duration(i) * time.Second)
		l.Allow("churn-"+string(rune('a'+i%26))+"-"+time.Duration(i).String(), at)
	}
	if got := len(l.events); got > 2*keyedSweepEvery {
		t.Fatalf("%d keys tracked, want bounded near the live window", got)
	}
}

func TestKeyedLimiterSweepKeepsLiveEvents(t *testing.T) {
	l := NewKeyedLimiter(time.Hour, 2)
	l.Allow("live", t0)
	l.Allow("live", t0.Add(30*time.Minute))
	l.Sweep(t0.Add(45 * time.Minute))
	if len(l.events) != 1 {
		t.Fatalf("live key evicted, tracked=%d", len(l.events))
	}
	// Both events are still inside the window, so the next attempt denies.
	if l.Allow("live", t0.Add(46*time.Minute)) {
		t.Fatal("sweep dropped in-window events")
	}
}

func TestBlockListConcurrentAccess(t *testing.T) {
	b := NewBlockList(time.Hour)
	done := make(chan struct{}, 8)
	for w := range 8 {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := range 2000 {
				key := "fp:" + string(rune('a'+(w+i)%16))
				at := t0.Add(time.Duration(i) * time.Second)
				switch i % 4 {
				case 0:
					b.Block(key, at)
				case 1:
					b.Blocked(key, at)
				case 2:
					b.Blocked(key, at.Add(2*time.Hour)) // expiry path
				default:
					b.Len()
				}
			}
		}(w)
	}
	for range 8 {
		<-done
	}
	if b.RulesAdded() == 0 {
		t.Fatal("no rules recorded under concurrent load")
	}
}
