package core

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"funabuse/internal/app"
	"funabuse/internal/booking"
	"funabuse/internal/fingerprint"
	"funabuse/internal/geo"
	"funabuse/internal/names"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
	"funabuse/internal/sms"
	"funabuse/internal/weblog"
)

type fixture struct {
	clock *simclock.Manual
	app   *Application
	fp    fingerprint.Fingerprint
}

func newFixture(t *testing.T, cfg DefenceConfig) *fixture {
	t.Helper()
	clock := simclock.NewManual(SimStart)
	rng := simrand.New(1)
	bookings := booking.NewSystem(clock, rng.Derive("b"), booking.DefaultConfig())
	decoy := booking.NewSystem(clock, rng.Derive("d"), booking.DefaultConfig())
	flight := booking.Flight{ID: "F1", Capacity: 100, Departure: SimStart.Add(30 * 24 * time.Hour)}
	bookings.AddFlight(flight)
	decoy.AddFlight(flight)
	gateway := sms.NewGateway(clock, geo.Default())
	a := NewApplication(clock, rng.Derive("app"), cfg, bookings, decoy, gateway)
	return &fixture{
		clock: clock,
		app:   a,
		fp:    fingerprint.NewGenerator(rng.Derive("fp")).Organic(),
	}
}

func (f *fixture) ctx(key string) app.ClientContext {
	return app.ClientContext{
		IP:          "10.0.0.1",
		Fingerprint: f.fp,
		ClientKey:   key,
		Cookie:      key,
		Actor:       weblog.ActorHuman,
		ActorID:     key,
	}
}

func party(t *testing.T, n int) []names.Identity {
	t.Helper()
	g := names.NewGenerator(simrand.New(7))
	out := make([]names.Identity, n)
	for i := range out {
		out[i] = g.Realistic()
	}
	return out
}

func TestApplicationServesHoldAndConfirm(t *testing.T) {
	f := newFixture(t, DefenceConfig{})
	hold, err := f.app.RequestHold(f.ctx("u1"), booking.HoldRequest{
		Flight: "F1", Passengers: party(t, 2), ActorID: "u1",
	})
	if err != nil {
		t.Fatalf("RequestHold: %v", err)
	}
	ticket, err := f.app.Confirm(f.ctx("u1"), hold.ID)
	if err != nil {
		t.Fatalf("Confirm: %v", err)
	}
	if ticket.RecordLocator == "" {
		t.Fatal("empty record locator")
	}
	av, err := f.app.Bookings().AvailabilityOf("F1")
	if err != nil {
		t.Fatal(err)
	}
	if av.Sold != 2 {
		t.Fatalf("availability %+v", av)
	}
	if got := f.app.Stats().Served; got != 2 {
		t.Fatalf("Served = %d", got)
	}
}

func TestApplicationLogsEveryRequest(t *testing.T) {
	f := newFixture(t, DefenceConfig{})
	if _, err := f.app.Get(f.ctx("u1"), "/search"); err != nil {
		t.Fatal(err)
	}
	_, _ = f.app.RequestHold(f.ctx("u1"), booking.HoldRequest{Flight: "F1", Passengers: party(t, 1)})
	if got := len(f.app.Log().Requests()); got != 2 {
		t.Fatalf("log has %d lines, want 2", got)
	}
}

func TestBlocklistRejectsByFingerprint(t *testing.T) {
	f := newFixture(t, DefenceConfig{Blocklists: true})
	f.app.Blocks().Block("fp:"+strconv.FormatUint(f.fp.Hash(), 16), f.clock.Now())
	_, err := f.app.RequestHold(f.ctx("bot"), booking.HoldRequest{Flight: "F1", Passengers: party(t, 1)})
	if !errors.Is(err, app.ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
	if f.app.Stats().Blocked != 1 {
		t.Fatalf("Blocked = %d", f.app.Stats().Blocked)
	}
	// Blocked request logged as 403.
	if got := f.app.Log().Requests()[0].Status; got != 403 {
		t.Fatalf("status %d", got)
	}
}

func TestBlocklistRejectsByIPAndClientKey(t *testing.T) {
	f := newFixture(t, DefenceConfig{Blocklists: true})
	f.app.Blocks().Block("ip:10.0.0.1", f.clock.Now())
	if _, err := f.app.Get(f.ctx("u"), "/x"); !errors.Is(err, app.ErrBlocked) {
		t.Fatalf("IP block err = %v", err)
	}
	f.app.Blocks().Unblock("ip:10.0.0.1")
	f.app.Blocks().Block("ck:u2", f.clock.Now())
	if _, err := f.app.Get(f.ctx("u2"), "/x"); !errors.Is(err, app.ErrBlocked) {
		t.Fatalf("client-key block err = %v", err)
	}
}

func TestSMSPathLimit(t *testing.T) {
	f := newFixture(t, DefenceConfig{SMSPathLimit: 2, SMSPathWindow: time.Hour})
	to := geo.PlanFor(geo.Default().MustLookup("FR")).Random(simrand.New(4))
	for i := range 2 {
		if err := f.app.RequestOTP(f.ctx("u"), to, "login"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := f.app.RequestOTP(f.ctx("u"), to, "login"); !errors.Is(err, app.ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if got := f.app.Stats().RateLimited; got != 1 {
		t.Fatalf("Stats().RateLimited = %d, want 1", got)
	}
	// Window slides: an hour later requests flow again.
	f.clock.Advance(61 * time.Minute)
	if err := f.app.RequestOTP(f.ctx("u"), to, "login"); err != nil {
		t.Fatalf("post-window request: %v", err)
	}
}

func TestSMSPerLocatorLimit(t *testing.T) {
	f := newFixture(t, DefenceConfig{SMSPerLocatorLimit: 2, SMSPerLocatorWindow: 24 * time.Hour})
	hold, err := f.app.RequestHold(f.ctx("u"), booking.HoldRequest{Flight: "F1", Passengers: party(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ticket, err := f.app.Confirm(f.ctx("u"), hold.ID)
	if err != nil {
		t.Fatal(err)
	}
	to := geo.PlanFor(geo.Default().MustLookup("UZ")).Random(simrand.New(5))
	for i := range 2 {
		if err := f.app.SendBoardingPass(f.ctx("u"), ticket.RecordLocator, to); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := f.app.SendBoardingPass(f.ctx("u"), ticket.RecordLocator, to); !errors.Is(err, app.ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if got := f.app.Stats().RateLimited; got != 1 {
		t.Fatalf("Stats().RateLimited = %d, want 1", got)
	}
}

func TestSMSPerProfileLimitIndependentKeys(t *testing.T) {
	f := newFixture(t, DefenceConfig{SMSPerProfileLimit: 1, SMSPerProfileWindow: time.Hour})
	to := geo.PlanFor(geo.Default().MustLookup("FR")).Random(simrand.New(6))
	if err := f.app.RequestOTP(f.ctx("a"), to, "l"); err != nil {
		t.Fatal(err)
	}
	if err := f.app.RequestOTP(f.ctx("a"), to, "l"); !errors.Is(err, app.ErrRateLimited) {
		t.Fatalf("second request same profile: %v", err)
	}
	if err := f.app.RequestOTP(f.ctx("b"), to, "l"); err != nil {
		t.Fatalf("other profile denied: %v", err)
	}
}

func TestBoardingPassUnknownLocator(t *testing.T) {
	f := newFixture(t, DefenceConfig{})
	to := geo.PlanFor(geo.Default().MustLookup("FR")).Random(simrand.New(8))
	err := f.app.SendBoardingPass(f.ctx("u"), "NOPE01", to)
	if !errors.Is(err, sms.ErrUnknownLocator) {
		t.Fatalf("err = %v, want ErrUnknownLocator", err)
	}
}

func TestHoneypotRedirection(t *testing.T) {
	f := newFixture(t, DefenceConfig{Honeypot: true})
	f.app.Honeypot().Redirect("attacker")
	hold, err := f.app.RequestHold(f.ctx("attacker"), booking.HoldRequest{Flight: "F1", Passengers: party(t, 6)})
	if err != nil {
		t.Fatalf("decoy hold: %v", err)
	}
	if hold == nil {
		t.Fatal("nil hold from decoy")
	}
	av, _ := f.app.Bookings().AvailabilityOf("F1")
	if av.Held != 0 {
		t.Fatalf("real inventory touched: %+v", av)
	}
	// Confirm against the decoy keeps the deception.
	if _, err := f.app.Confirm(f.ctx("attacker"), hold.ID); err != nil {
		t.Fatalf("decoy confirm: %v", err)
	}
}

func TestAuditTrailRecordsHolds(t *testing.T) {
	f := newFixture(t, DefenceConfig{})
	_, _ = f.app.RequestHold(f.ctx("u1"), booking.HoldRequest{Flight: "F1", Passengers: party(t, 3)})
	_, _ = f.app.RequestHold(f.ctx("u2"), booking.HoldRequest{Flight: "F1", Passengers: party(t, 200)}) // rejected
	audit := f.app.AuditSince(time.Time{})
	if len(audit) != 2 {
		t.Fatalf("audit has %d entries", len(audit))
	}
	if !audit[0].Accepted || audit[0].ClientKey != "u1" {
		t.Fatalf("audit[0] = %+v", audit[0])
	}
	if audit[1].Accepted {
		t.Fatal("rejected hold marked accepted")
	}
	if audit[0].FPHash != f.fp.Hash() {
		t.Fatal("audit fingerprint hash mismatch")
	}
}

func TestFingerprintByHash(t *testing.T) {
	f := newFixture(t, DefenceConfig{})
	if _, err := f.app.Get(f.ctx("u"), "/x"); err != nil {
		t.Fatal(err)
	}
	got, ok := f.app.FingerprintByHash(f.fp.Hash())
	if !ok || got.Hash() != f.fp.Hash() {
		t.Fatal("FingerprintByHash failed to resolve a seen print")
	}
	if _, ok := f.app.FingerprintByHash(12345); ok {
		t.Fatal("unseen hash resolved")
	}
}
