package attack

import (
	"errors"
	"strings"
	"testing"
	"time"

	"funabuse/internal/app"
	"funabuse/internal/booking"
	"funabuse/internal/fingerprint"
	"funabuse/internal/geo"
	"funabuse/internal/names"
	"funabuse/internal/proxy"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

var t0 = time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)

// fakeAPI is a scriptable application double implementing the app
// interfaces. Behaviour is driven by the fail function.
type fakeAPI struct {
	clock    *simclock.Manual
	holds    int
	confirms int
	sms      int
	gets     int
	nipSeen  []int
	lastErr  error
	// fail decides the error for the next reservation call.
	fail func(ctx app.ClientContext, nip int) error
	// failSMS decides the error for the next SMS call.
	failSMS func(ctx app.ClientContext) error
	// prints records every fingerprint hash presented.
	prints map[uint64]int
	// smsTo records destinations.
	smsTo []geo.MSISDN
	// ips records exits seen.
	ips map[proxy.IP]int
	id  uint64
}

func newFakeAPI(clock *simclock.Manual) *fakeAPI {
	return &fakeAPI{
		clock:  clock,
		prints: make(map[uint64]int),
		ips:    make(map[proxy.IP]int),
	}
}

func (f *fakeAPI) RequestHold(ctx app.ClientContext, req booking.HoldRequest) (*booking.Hold, error) {
	f.prints[ctx.Fingerprint.Hash()]++
	f.ips[ctx.IP]++
	if f.fail != nil {
		if err := f.fail(ctx, len(req.Passengers)); err != nil {
			f.lastErr = err
			return nil, err
		}
	}
	f.holds++
	f.nipSeen = append(f.nipSeen, len(req.Passengers))
	f.id++
	return &booking.Hold{
		ID:        booking.HoldID(f.id),
		Flight:    req.Flight,
		NiP:       len(req.Passengers),
		ExpiresAt: f.clock.Now().Add(30 * time.Minute),
	}, nil
}

func (f *fakeAPI) Confirm(app.ClientContext, booking.HoldID) (booking.Ticket, error) {
	f.confirms++
	return booking.Ticket{RecordLocator: "LOC" + string(rune('A'+f.confirms%26)) + "00"}, nil
}

func (f *fakeAPI) RequestOTP(ctx app.ClientContext, to geo.MSISDN, login string) error {
	return f.sendSMS(ctx, to)
}

func (f *fakeAPI) SendBoardingPass(ctx app.ClientContext, locator string, to geo.MSISDN) error {
	return f.sendSMS(ctx, to)
}

func (f *fakeAPI) sendSMS(ctx app.ClientContext, to geo.MSISDN) error {
	f.prints[ctx.Fingerprint.Hash()]++
	f.ips[ctx.IP]++
	if f.failSMS != nil {
		if err := f.failSMS(ctx); err != nil {
			return err
		}
	}
	f.sms++
	f.smsTo = append(f.smsTo, to)
	return nil
}

func (f *fakeAPI) Get(ctx app.ClientContext, path string) (int, error) {
	f.gets++
	return 200, nil
}

func harness() (*simclock.Manual, *simclock.Scheduler, *fakeAPI, *simrand.RNG, *proxy.Service) {
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	rng := simrand.New(1)
	return clock, sched, newFakeAPI(clock), rng, proxy.NewService(rng.Derive("proxies"))
}

func spinnerWith(sched *simclock.Scheduler, api *fakeAPI, rng *simrand.RNG, svc *proxy.Service, cfg SeatSpinnerConfig) *SeatSpinner {
	rot := fingerprint.NewRotator(rng.Derive("rot"), fingerprint.NewGenerator(rng.Derive("fp")), fingerprint.WithSpoofing())
	return NewSeatSpinner(cfg, api, sched, rng.Derive("spin"), rot, svc.NewSession("SG", proxy.RotatePerRequest))
}

func TestSeatSpinnerReholdsOnExpiry(t *testing.T) {
	_, sched, api, rng, svc := harness()
	s := spinnerWith(sched, api, rng, svc, SeatSpinnerConfig{
		ID: "s1", Flight: "F1", TargetNiP: 6,
		ReholdInterval: 30 * time.Minute,
		Departure:      t0.Add(10 * 24 * time.Hour),
	})
	s.Start()
	if err := sched.RunFor(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// One stream re-holding every ~30min for 6h: ~12 holds.
	if api.holds < 10 || api.holds > 14 {
		t.Fatalf("holds = %d, want ~12", api.holds)
	}
	for _, nip := range api.nipSeen {
		if nip != 6 {
			t.Fatalf("hold with NiP %d, want 6", nip)
		}
	}
}

func TestSeatSpinnerParallelStreams(t *testing.T) {
	_, sched, api, rng, svc := harness()
	s := spinnerWith(sched, api, rng, svc, SeatSpinnerConfig{
		ID: "s1", Flight: "F1", TargetNiP: 4, Parallel: 5,
		ReholdInterval: 30 * time.Minute,
		Departure:      t0.Add(10 * 24 * time.Hour),
	})
	s.Start()
	if err := sched.RunFor(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// Five streams, ~6 holds each.
	if api.holds < 25 || api.holds > 35 {
		t.Fatalf("holds = %d, want ~30", api.holds)
	}
}

func TestSeatSpinnerAdaptsToCap(t *testing.T) {
	_, sched, api, rng, svc := harness()
	cap, rejects := 4, 0
	api.fail = func(_ app.ClientContext, nip int) error {
		if nip > cap {
			rejects++
			return booking.ErrNiPCapExceeded
		}
		return nil
	}
	s := spinnerWith(sched, api, rng, svc, SeatSpinnerConfig{
		ID: "s1", Flight: "F1", TargetNiP: 6,
		ReholdInterval: 30 * time.Minute,
		Departure:      t0.Add(10 * 24 * time.Hour),
	})
	s.Start()
	if err := sched.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if s.CurrentNiP() != cap {
		t.Fatalf("CurrentNiP = %d, want %d", s.CurrentNiP(), cap)
	}
	if rejects != 2 { // probes 6 -> 5 -> 4
		t.Fatalf("%d cap rejects, want 2", rejects)
	}
	if api.holds == 0 {
		t.Fatal("no holds after adaptation")
	}
}

func TestSeatSpinnerRotatesAfterBlock(t *testing.T) {
	_, sched, api, rng, svc := harness()
	blockedPrints := map[uint64]bool{}
	api.fail = func(ctx app.ClientContext, _ int) error {
		if blockedPrints[ctx.Fingerprint.Hash()] {
			return app.ErrBlocked
		}
		return nil
	}
	s := spinnerWith(sched, api, rng, svc, SeatSpinnerConfig{
		ID: "s1", Flight: "F1", TargetNiP: 2,
		ReholdInterval: 30 * time.Minute,
		Departure:      t0.Add(20 * 24 * time.Hour),
	})
	s.Start()
	// Let it establish, then block its current print.
	if err := sched.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	first := s.rotator.Current().Hash()
	blockedPrints[first] = true
	if err := sched.RunFor(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.Blocked == 0 {
		t.Fatal("spinner never observed the block")
	}
	if len(stats.Rotations) != 1 {
		t.Fatalf("rotations = %d, want exactly 1", len(stats.Rotations))
	}
	if s.rotator.Current().Hash() == first {
		t.Fatal("fingerprint unchanged after rotation")
	}
	// Attack resumed after rotating.
	if api.holds < 10 {
		t.Fatalf("holds = %d, attack did not resume", api.holds)
	}
	if iv := stats.Rotations[0].Interval(); iv < 15*time.Minute || iv > 40*time.Hour {
		t.Fatalf("rotation interval %v implausible", iv)
	}
}

func TestSeatSpinnerStopsBeforeDeparture(t *testing.T) {
	_, sched, api, rng, svc := harness()
	departure := t0.Add(5 * 24 * time.Hour)
	s := spinnerWith(sched, api, rng, svc, SeatSpinnerConfig{
		ID: "s1", Flight: "F1", TargetNiP: 2,
		ReholdInterval: 30 * time.Minute,
		Departure:      departure,
	})
	s.Start()
	if err := sched.RunFor(6 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if !s.Stopped() {
		t.Fatal("spinner still running after deadline")
	}
	// ~3 days of holding at 30-minute cadence.
	if api.holds < 130 || api.holds > 160 {
		t.Fatalf("holds = %d, want ~144", api.holds)
	}
}

func TestSeatSpinnerStructuredIdentities(t *testing.T) {
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	api := newFakeAPI(clock)
	rng := simrand.New(2)
	svc := proxy.NewService(rng.Derive("p"))

	var captured [][]names.Identity
	api.fail = nil
	origAPI := *api
	_ = origAPI
	capturing := &captureAPI{fakeAPI: api, captured: &captured}
	rot := fingerprint.NewRotator(rng.Derive("rot"), fingerprint.NewGenerator(rng.Derive("fp")), fingerprint.WithSpoofing())
	s := NewSeatSpinner(SeatSpinnerConfig{
		ID: "s1", Flight: "F1", TargetNiP: 3,
		ReholdInterval: 30 * time.Minute,
		Departure:      t0.Add(10 * 24 * time.Hour),
	}, capturing, sched, rng.Derive("spin"), rot, svc.NewSession("SG", proxy.RotatePerRequest))
	s.Start()
	if err := sched.RunFor(5 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(captured) < 8 {
		t.Fatalf("captured %d parties", len(captured))
	}
	lead := captured[0][0].Key()
	var prevBirth time.Time
	for i, party := range captured {
		if party[0].Key() != lead {
			t.Fatalf("party %d lead changed", i)
		}
		if i > 0 && !party[0].BirthDate.After(prevBirth) {
			t.Fatalf("lead birthdate not rotating at party %d", i)
		}
		prevBirth = party[0].BirthDate
	}
}

// captureAPI wraps fakeAPI to capture passenger lists.
type captureAPI struct {
	*fakeAPI
	captured *[][]names.Identity
}

func (c *captureAPI) RequestHold(ctx app.ClientContext, req booking.HoldRequest) (*booking.Hold, error) {
	ps := append([]names.Identity(nil), req.Passengers...)
	*c.captured = append(*c.captured, ps)
	return c.fakeAPI.RequestHold(ctx, req)
}

func TestManualSpinnerUsesFixedPoolWithTypos(t *testing.T) {
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	api := newFakeAPI(clock)
	rng := simrand.New(3)
	svc := proxy.NewService(rng.Derive("p"))

	var captured [][]names.Identity
	capturing := &captureAPI{fakeAPI: api, captured: &captured}
	m := NewManualSpinner(ManualSpinnerConfig{
		ID: "m1", Flight: "F1", PartySize: 3,
		MeanGap: 10 * time.Minute, TypoRate: 0.3,
		Until: t0.Add(48 * time.Hour),
	}, capturing, sched, rng.Derive("m"), svc.NewSession("TH", proxy.RotatePerRequest))
	m.Start()
	if err := sched.RunFor(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if m.Holds() < 50 {
		t.Fatalf("manual spinner held %d times", m.Holds())
	}
	// Occurrences concentrate on the base pool; typo variants are
	// each distinct but individually rare.
	counts := map[string]int{}
	entries := 0
	for _, party := range captured {
		for _, id := range party {
			counts[id.Key()]++
			entries++
		}
	}
	type kv struct {
		name string
		n    int
	}
	var top []kv
	for name, n := range counts {
		top = append(top, kv{name, n})
	}
	// Select the manualPoolSize most frequent names.
	for i := range top {
		for j := i + 1; j < len(top); j++ {
			if top[j].n > top[i].n {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	baseShare := 0
	for i := 0; i < manualPoolSize && i < len(top); i++ {
		baseShare += top[i].n
	}
	if float64(baseShare)/float64(entries) < 0.6 {
		t.Fatalf("base pool covers %d/%d entries, want dominant reuse", baseShare, entries)
	}
	if len(counts) <= manualPoolSize {
		t.Fatal("no typo variants observed at 30% typo rate")
	}
	// Broad IP range: per-request rotation.
	if len(api.ips) < 20 {
		t.Fatalf("manual spinner used %d IPs, want a broad range", len(api.ips))
	}
}

func TestManualSpinnerStopsAtDeadline(t *testing.T) {
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	api := newFakeAPI(clock)
	rng := simrand.New(4)
	svc := proxy.NewService(rng.Derive("p"))
	m := NewManualSpinner(ManualSpinnerConfig{
		ID: "m1", Flight: "F1", Until: t0.Add(6 * time.Hour),
	}, api, sched, rng.Derive("m"), svc.NewSession("TH", proxy.RotatePerRequest))
	m.Start()
	if err := sched.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	afterDeadline := api.holds
	if err := sched.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if api.holds != afterDeadline {
		t.Fatal("manual spinner kept booking past its deadline")
	}
}

func TestSMSPumperPurchasesThenPumps(t *testing.T) {
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	api := newFakeAPI(clock)
	rng := simrand.New(5)
	svc := proxy.NewService(rng.Derive("p"))
	reg := geo.Default()
	rot := fingerprint.NewRotator(rng.Derive("rot"), fingerprint.NewGenerator(rng.Derive("fp")), fingerprint.WithSpoofing())

	p := NewSMSPumper(SMSPumperConfig{
		ID: "pump", Flight: "F1", Tickets: 3,
		SendInterval: time.Minute,
		Until:        t0.Add(12 * time.Hour),
	}, api, api, sched, rng.Derive("pump"), svc, rot, reg)
	p.Start()
	if err := sched.RunFor(12 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if api.confirms != 3 {
		t.Fatalf("confirms = %d", api.confirms)
	}
	// ~720 sends at 1/min over 12h.
	if p.Sent() < 500 || p.Sent() > 900 {
		t.Fatalf("sent = %d, want ~720", p.Sent())
	}
	// Destinations resolve to registry countries, skewed to the heavy mix.
	counts := map[string]int{}
	for _, to := range api.smsTo {
		c, ok := reg.CountryOf(to)
		if !ok {
			t.Fatalf("unresolvable destination %s", to)
		}
		counts[c.Code]++
	}
	if counts["UZ"] < counts["TH"] {
		t.Fatalf("UZ (%d) not favoured over TH (%d)", counts["UZ"], counts["TH"])
	}
}

func TestSMSPumperGeoMatchedExits(t *testing.T) {
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	api := newFakeAPI(clock)
	rng := simrand.New(6)
	svc := proxy.NewService(rng.Derive("p"))
	reg := geo.Default()
	rot := fingerprint.NewRotator(rng.Derive("rot"), fingerprint.NewGenerator(rng.Derive("fp")), fingerprint.WithSpoofing())

	p := NewSMSPumper(SMSPumperConfig{
		ID: "pump", Flight: "F1", Tickets: 1,
		SendInterval: time.Minute,
		Until:        t0.Add(4 * time.Hour),
	}, api, api, sched, rng.Derive("pump"), svc, rot, reg)
	p.Start()
	if err := sched.RunFor(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// Exits come from per-destination-country pools — geo matching. Each
	// country's pool owns its own leading octet pair.
	spaces := map[string]bool{}
	for ip := range api.ips {
		s := string(ip)
		dot := strings.IndexByte(s, '.')
		dot += 1 + strings.IndexByte(s[dot+1:], '.')
		spaces[s[:dot]] = true
	}
	if got := len(spaces); got < 5 {
		t.Fatalf("exits from %d country pools, want several (geo-matched exits)", got)
	}
}

func TestSMSPumperRotatesOnBlock(t *testing.T) {
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	api := newFakeAPI(clock)
	rng := simrand.New(7)
	svc := proxy.NewService(rng.Derive("p"))
	reg := geo.Default()
	rot := fingerprint.NewRotator(rng.Derive("rot"), fingerprint.NewGenerator(rng.Derive("fp")), fingerprint.WithSpoofing())

	blocked := map[uint64]bool{}
	denials := 0
	api.failSMS = func(ctx app.ClientContext) error {
		if blocked[ctx.Fingerprint.Hash()] {
			denials++
			return app.ErrBlocked
		}
		return nil
	}
	p := NewSMSPumper(SMSPumperConfig{
		ID: "pump", Flight: "F1", Tickets: 1,
		SendInterval: time.Minute,
		Until:        t0.Add(8 * time.Hour),
	}, api, api, sched, rng.Derive("pump"), svc, rot, reg)
	p.Start()
	if err := sched.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	first := rot.Current().Hash()
	blocked[first] = true
	if err := sched.RunFor(7 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if rot.Current().Hash() == first {
		t.Fatal("pumper never rotated after block")
	}
	if denials == 0 {
		t.Fatal("block not observed")
	}
	// Pumping resumed under the new print.
	if p.Sent() < 300 {
		t.Fatalf("sent = %d, pumping did not resume", p.Sent())
	}
}

func TestScraperCrawlsAndHitsTrap(t *testing.T) {
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	api := newFakeAPI(clock)
	rng := simrand.New(9)
	svc := proxy.NewService(rng.Derive("p"))

	s := NewScraper(ScraperConfig{
		ID: "sc", Interval: time.Second, Requests: 300,
	}, api, sched, rng.Derive("s"), svc.NewSession("US", proxy.RotatePerSession))
	s.Start()
	if err := sched.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if s.sent != 300 {
		t.Fatalf("sent = %d, want 300", s.sent)
	}
	if api.gets != 300 {
		t.Fatalf("gets = %d", api.gets)
	}
}

func TestScraperPausesSplitBursts(t *testing.T) {
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	api := newFakeAPI(clock)
	rng := simrand.New(10)
	svc := proxy.NewService(rng.Derive("p"))

	s := NewScraper(ScraperConfig{
		ID: "sc", Interval: time.Second, Requests: 400,
	}, api, sched, rng.Derive("s"), svc.NewSession("US", proxy.RotatePerSession))
	s.Start()
	// 400 requests with a 45-minute pause after every crawlBurst (150):
	// two pauses, so it needs > 90 minutes.
	if err := sched.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if s.sent >= 400 {
		t.Fatal("pauses not applied")
	}
	if err := sched.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if s.sent != 400 {
		t.Fatalf("sent = %d after pauses", s.sent)
	}
}

func TestDefaultTargetMixCoversRegistry(t *testing.T) {
	reg := geo.Default()
	mix := DefaultTargetMix(reg)
	total := 0.0
	heavy := map[string]float64{}
	for _, wc := range mix {
		total += wc.Weight
		heavy[wc.Code] = wc.Weight
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("mix weights sum to %v", total)
	}
	if heavy["UZ"] < heavy["KH"] || heavy["UZ"] < heavy["TH"] {
		t.Fatal("UZ not the heaviest destination")
	}
	if len(mix) < 40 {
		t.Fatalf("mix covers %d countries", len(mix))
	}
}

func TestRotationIntervalMeasurement(t *testing.T) {
	r := Rotation{BlockedAt: t0, ResumedAt: t0.Add(5 * time.Hour)}
	if r.Interval() != 5*time.Hour {
		t.Fatalf("Interval = %v", r.Interval())
	}
	var s SpinnerStats
	if s.MeanRotationInterval() != 0 {
		t.Fatal("empty stats mean not zero")
	}
	s.Rotations = []Rotation{
		{BlockedAt: t0, ResumedAt: t0.Add(4 * time.Hour)},
		{BlockedAt: t0, ResumedAt: t0.Add(6 * time.Hour)},
	}
	if s.MeanRotationInterval() != 5*time.Hour {
		t.Fatalf("mean = %v", s.MeanRotationInterval())
	}
}

func TestSpinnerUnknownErrorRetries(t *testing.T) {
	_, sched, api, rng, svc := harness()
	calls := 0
	api.fail = func(app.ClientContext, int) error {
		calls++
		if calls < 3 {
			return errors.New("transient upstream failure")
		}
		return nil
	}
	s := spinnerWith(sched, api, rng, svc, SeatSpinnerConfig{
		ID: "s1", Flight: "F1", TargetNiP: 1,
		ReholdInterval: 30 * time.Minute,
		Departure:      t0.Add(10 * 24 * time.Hour),
	})
	s.Start()
	if err := sched.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if api.holds == 0 {
		t.Fatal("spinner gave up on transient errors")
	}
}

func TestSpinnerClientKeyRotatesWithIdentity(t *testing.T) {
	_, sched, api, rng, svc := harness()
	keys := map[string]bool{}
	blocked := false
	api.fail = func(ctx app.ClientContext, _ int) error {
		keys[ctx.ClientKey] = true
		if blocked {
			blocked = false
			return app.ErrBlocked
		}
		return nil
	}
	s := spinnerWith(sched, api, rng, svc, SeatSpinnerConfig{
		ID: "s1", Flight: "F1", TargetNiP: 1,
		ReholdInterval: 30 * time.Minute,
		Departure:      t0.Add(20 * 24 * time.Hour),
	})
	s.Start()
	if err := sched.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	blocked = true
	if err := sched.RunFor(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	distinct := 0
	for k := range keys {
		if strings.HasPrefix(k, "s1-c") {
			distinct++
		}
	}
	if distinct < 2 {
		t.Fatalf("client key did not rotate: %v", keys)
	}
}
