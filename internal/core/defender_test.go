package core

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"funabuse/internal/app"
	"funabuse/internal/booking"
	"funabuse/internal/names"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

// defenderFixture wires an application plus a scheduler-driven defender.
type defenderFixture struct {
	*fixture
	sched    *simclock.Scheduler
	defender *Defender
}

func newDefenderFixture(t *testing.T, cfg DefenceConfig, dcfg DefenderConfig, baseline []booking.Record) *defenderFixture {
	t.Helper()
	f := newFixture(t, cfg)
	sched := simclock.NewScheduler(f.clock)
	d := NewDefender(dcfg, f.app, sched, baseline)
	d.Start()
	return &defenderFixture{fixture: f, sched: sched, defender: d}
}

// syntheticBaseline fabricates an average-week journal dominated by small
// parties.
func syntheticBaseline() []booking.Record {
	c := simrand.NewCategorical([]float64{0.52, 0.30, 0.08, 0.05, 0.02, 0.015, 0.008, 0.004, 0.003})
	r := simrand.New(11)
	out := make([]booking.Record, 0, 3000)
	for i := range 3000 {
		out = append(out, booking.Record{
			HoldID: booking.HoldID(i + 1), NiP: c.Draw(r) + 1,
			Outcome: booking.OutcomeAccepted,
		})
	}
	return out
}

func TestDefenderBlocksFastHoldingClient(t *testing.T) {
	dcfg := DefaultDefenderConfig()
	dcfg.NiPCapOnDrift = 0
	df := newDefenderFixture(t, DefenceConfig{Blocklists: true}, dcfg, syntheticBaseline())

	// A client holding every 31 minutes blows far past the threshold of 4
	// accepted holds per window. Drive time through the scheduler so the
	// defender ticks.
	key := "spinner-key"
	g := names.NewGenerator(simrand.New(22))
	for i := range 12 {
		df.sched.Schedule(SimStart.Add(time.Duration(i)*31*time.Minute), func(time.Time) {
			ps := []names.Identity{g.Realistic()}
			_, _ = df.app.RequestHold(df.ctx(key), booking.HoldRequest{Flight: "F1", Passengers: ps, ActorID: key})
		})
	}
	if err := df.sched.RunFor(13 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if df.defender.RulesAdded() == 0 {
		t.Fatal("defender installed no rules against a fast-holding client")
	}
	// The client key itself must be burned.
	_, err := df.app.RequestHold(df.ctx(key), booking.HoldRequest{
		Flight: "F1", Passengers: []names.Identity{g.Realistic()}, ActorID: key,
	})
	if !errors.Is(err, app.ErrBlocked) {
		t.Fatalf("spinner key still admitted: %v", err)
	}
}

func TestDefenderLeavesNormalClientsAlone(t *testing.T) {
	dcfg := DefaultDefenderConfig()
	dcfg.NiPCapOnDrift = 0
	df := newDefenderFixture(t, DefenceConfig{Blocklists: true}, dcfg, syntheticBaseline())

	g := names.NewGenerator(simrand.New(23))
	for i := range 20 {
		key := "user-" + strconv.Itoa(i)
		df.sched.Schedule(SimStart.Add(time.Duration(i)*20*time.Minute), func(time.Time) {
			_, _ = df.app.RequestHold(df.ctx(key), booking.HoldRequest{
				Flight: "F1", Passengers: []names.Identity{g.Realistic()}, ActorID: key,
			})
		})
	}
	if err := df.sched.RunFor(8 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if df.defender.RulesAdded() != 0 {
		t.Fatalf("defender blocked normal clients: %d rules", df.defender.RulesAdded())
	}
}

func TestDefenderAppliesNiPCapOnDrift(t *testing.T) {
	dcfg := DefaultDefenderConfig()
	df := newDefenderFixture(t, DefenceConfig{}, dcfg, syntheticBaseline())

	// Flood the window with NiP-6 reservations from many distinct keys so
	// only the distribution shifts, not any single key's velocity.
	g := names.NewGenerator(simrand.New(24))
	for i := range 300 {
		key := "g-" + strconv.Itoa(i)
		df.sched.Schedule(SimStart.Add(time.Duration(i)*time.Minute), func(time.Time) {
			ps := make([]names.Identity, 6)
			for j := range ps {
				ps[j] = g.Realistic()
			}
			_, _ = df.app.RequestHold(df.ctx(key), booking.HoldRequest{Flight: "F1", Passengers: ps, ActorID: key})
		})
	}
	if err := df.sched.RunFor(7 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, capped := df.defender.CapApplied(); !capped {
		t.Fatal("NiP cap did not fire on a massive drift")
	}
	for nip, want := range map[int]bool{4: false, 5: true} {
		ps := make([]names.Identity, nip)
		for j := range ps {
			ps[j] = g.Realistic()
		}
		_, err := df.app.Bookings().RequestHold(booking.HoldRequest{Flight: "F1", Passengers: ps})
		if got := errors.Is(err, booking.ErrNiPCapExceeded); got != want {
			t.Fatalf("NiP %d: cap rejection %v, want %v (err %v)", nip, got, want, err)
		}
	}
}

func TestDefenderLearnsBaselineWhenNoneGiven(t *testing.T) {
	dcfg := DefaultDefenderConfig()
	df := newDefenderFixture(t, DefenceConfig{}, dcfg, nil)

	// First window is normal traffic; defender learns it and must not cap.
	g := names.NewGenerator(simrand.New(25))
	for i := range 30 {
		key := "u-" + strconv.Itoa(i)
		df.sched.Schedule(SimStart.Add(time.Duration(i)*10*time.Minute), func(time.Time) {
			_, _ = df.app.RequestHold(df.ctx(key), booking.HoldRequest{
				Flight: "F1", Passengers: []names.Identity{g.Realistic()}, ActorID: key,
			})
		})
	}
	if err := df.sched.RunFor(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, capped := df.defender.CapApplied(); capped {
		t.Fatal("cap fired while learning the baseline")
	}
}

func TestDefenderRedirectsToHoneypot(t *testing.T) {
	dcfg := DefaultDefenderConfig()
	dcfg.NiPCapOnDrift = 0
	dcfg.RedirectToHoneypot = true
	df := newDefenderFixture(t, DefenceConfig{Blocklists: true, Honeypot: true}, dcfg, syntheticBaseline())

	key := "spin-key"
	g := names.NewGenerator(simrand.New(26))
	for i := range 10 {
		df.sched.Schedule(SimStart.Add(time.Duration(i)*31*time.Minute), func(time.Time) {
			_, _ = df.app.RequestHold(df.ctx(key), booking.HoldRequest{
				Flight: "F1", Passengers: []names.Identity{g.Realistic()}, ActorID: key,
			})
		})
	}
	if err := df.sched.RunFor(7 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if df.defender.Redirects() == 0 {
		t.Fatal("no honeypot redirects")
	}
	if !df.app.Honeypot().IsRedirected(key) {
		t.Fatal("suspect key not redirected")
	}
	// Redirected, not blocked: the attacker still "succeeds".
	_, err := df.app.RequestHold(df.ctx(key), booking.HoldRequest{
		Flight: "F1", Passengers: []names.Identity{g.Realistic()}, ActorID: key,
	})
	if err != nil {
		t.Fatalf("redirected client was rejected: %v", err)
	}
	if df.defender.RulesAdded() != 0 {
		t.Fatalf("honeypot arm still added %d block rules", df.defender.RulesAdded())
	}
}
