package workload

import (
	"errors"
	"math"
	"testing"
	"time"

	"funabuse/internal/app"
	"funabuse/internal/booking"
	"funabuse/internal/geo"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

var t0 = time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)

// recordingAPI implements the app interfaces, recording traffic.
type recordingAPI struct {
	clock   *simclock.Manual
	maxNiP  int
	nips    []int
	holds   int
	confirm int
	otps    int
	bps     []geo.MSISDN
	gets    int
	cookies map[string]bool
	id      uint64
}

func (r *recordingAPI) RequestHold(ctx app.ClientContext, req booking.HoldRequest) (*booking.Hold, error) {
	r.cookies[ctx.Cookie] = true
	if r.maxNiP > 0 && len(req.Passengers) > r.maxNiP {
		return nil, booking.ErrNiPCapExceeded
	}
	r.holds++
	r.nips = append(r.nips, len(req.Passengers))
	r.id++
	return &booking.Hold{ID: booking.HoldID(r.id), NiP: len(req.Passengers)}, nil
}

func (r *recordingAPI) Confirm(app.ClientContext, booking.HoldID) (booking.Ticket, error) {
	r.confirm++
	return booking.Ticket{RecordLocator: "LOCAT" + string(rune('A'+r.confirm%26))}, nil
}

func (r *recordingAPI) Availability(app.ClientContext, booking.FlightID) (booking.Availability, error) {
	return booking.Availability{}, nil
}

func (r *recordingAPI) RequestOTP(ctx app.ClientContext, to geo.MSISDN, login string) error {
	r.otps++
	return nil
}

func (r *recordingAPI) SendBoardingPass(ctx app.ClientContext, locator string, to geo.MSISDN) error {
	r.bps = append(r.bps, to)
	return nil
}

func (r *recordingAPI) Get(app.ClientContext, string) (int, error) {
	r.gets++
	return 200, nil
}

func run(t *testing.T, cfg Config, horizon time.Duration, maxNiP int) (*recordingAPI, *Population) {
	t.Helper()
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	api := &recordingAPI{clock: clock, maxNiP: maxNiP, cookies: make(map[string]bool)}
	pop := NewPopulation(cfg, api, api, api, sched, simrand.New(1), geo.Default())
	pop.Start()
	if err := sched.RunFor(horizon); err != nil {
		t.Fatal(err)
	}
	return api, pop
}

func flights() []booking.FlightID { return []booking.FlightID{"F1", "F2", "F3"} }

func TestPopulationNiPMixMatchesFig1Baseline(t *testing.T) {
	cfg := DefaultConfig(flights(), t0.Add(4*24*time.Hour))
	cfg.HoldsPerHour = 120
	api, _ := run(t, cfg, 4*24*time.Hour, 0)
	if api.holds < 3000 {
		t.Fatalf("only %d holds generated", api.holds)
	}
	counts := make([]int, 10)
	for _, nip := range api.nips {
		if nip >= 1 && nip <= 9 {
			counts[nip]++
		}
	}
	total := float64(api.holds)
	for i, want := range DefaultNiPWeights {
		got := float64(counts[i+1]) / total
		if math.Abs(got-want) > 0.03 {
			t.Errorf("NiP %d share %.3f, want ~%.3f", i+1, got, want)
		}
	}
}

func TestPopulationDiurnalPattern(t *testing.T) {
	cfg := DefaultConfig(flights(), t0.Add(48*time.Hour))
	cfg.HoldsPerHour = 200
	cfg.OTPPerHour = 0
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	api := &recordingAPI{clock: clock, cookies: make(map[string]bool)}
	pop := NewPopulation(cfg, api, nil, nil, sched, simrand.New(2), geo.Default())
	pop.Start()

	// Count holds in a night window vs a day window.
	if err := sched.RunUntil(t0.Add(5 * time.Hour)); err != nil { // 00:00-05:00
		t.Fatal(err)
	}
	night := api.holds
	if err := sched.RunUntil(t0.Add(10 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	preDay := api.holds
	if err := sched.RunUntil(t0.Add(15 * time.Hour)); err != nil { // 10:00-15:00
		t.Fatal(err)
	}
	day := api.holds - preDay
	if night*3 > day {
		t.Fatalf("night holds %d vs day holds %d, want strong diurnal shape", night, day)
	}
}

func TestPopulationConfirmShare(t *testing.T) {
	cfg := DefaultConfig(flights(), t0.Add(3*24*time.Hour))
	cfg.HoldsPerHour = 100
	cfg.ConfirmProb = 0.5
	api, _ := run(t, cfg, 3*24*time.Hour+time.Hour, 0)
	share := float64(api.confirm) / float64(api.holds)
	if math.Abs(share-0.5) > 0.05 {
		t.Fatalf("confirm share %.3f, want ~0.5", share)
	}
}

func TestPopulationBoardingPassesGoToHomeCountry(t *testing.T) {
	cfg := DefaultConfig(flights(), t0.Add(2*24*time.Hour))
	cfg.HoldsPerHour = 80
	cfg.BoardingPassProb = 1.0
	cfg.ConfirmProb = 1.0
	cfg.TailMarketShare = 0
	api, _ := run(t, cfg, 3*24*time.Hour, 0)
	if len(api.bps) < 100 {
		t.Fatalf("only %d boarding passes", len(api.bps))
	}
	reg := geo.Default()
	markets := map[string]bool{}
	for _, m := range defaultMarkets {
		markets[m] = true
	}
	for _, to := range api.bps {
		c, ok := reg.CountryOf(to)
		if !ok {
			t.Fatalf("unresolvable number %s", to)
		}
		// NANP numbers ("1" prefix) are ambiguous between US and CA; accept
		// either resolution.
		if !markets[c.Code] && c.DialPrefix != "1" {
			t.Fatalf("boarding pass sent to non-market country %s", c.Code)
		}
	}
}

func TestPopulationTailMarkets(t *testing.T) {
	cfg := DefaultConfig(flights(), t0.Add(3*24*time.Hour))
	cfg.HoldsPerHour = 100
	cfg.BoardingPassProb = 1.0
	cfg.ConfirmProb = 1.0
	cfg.TailMarketShare = 0.5 // exaggerate for the test
	api, _ := run(t, cfg, 4*24*time.Hour, 0)
	reg := geo.Default()
	tail := 0
	markets := map[string]bool{}
	for _, m := range defaultMarkets {
		markets[m] = true
	}
	for _, to := range api.bps {
		c, _ := reg.CountryOf(to)
		if !markets[c.Code] {
			tail++
			if c.HighCost() {
				t.Fatalf("tail market %s is a high-cost destination", c.Code)
			}
		}
	}
	if tail == 0 {
		t.Fatal("no tail-market traffic at 50% tail share")
	}
}

func TestPopulationAdaptsToNiPCap(t *testing.T) {
	cfg := DefaultConfig(flights(), t0.Add(2*24*time.Hour))
	cfg.HoldsPerHour = 120
	api, pop := run(t, cfg, 2*24*time.Hour, 4)
	// Groups larger than 4 rebook at 4; nothing above the cap reaches the
	// books, and friction stays zero because clients adapt.
	for _, nip := range api.nips {
		if nip > 4 {
			t.Fatalf("hold with NiP %d accepted past cap", nip)
		}
	}
	if pop.Friction() != 0 {
		t.Fatalf("friction %d; group clients should adapt, not fail", pop.Friction())
	}
	capped := 0
	for _, nip := range api.nips {
		if nip == 4 {
			capped++
		}
	}
	baseline4 := DefaultNiPWeights[3]
	share4 := float64(capped) / float64(len(api.nips))
	if share4 < baseline4+0.02 {
		t.Fatalf("NiP4 share %.3f did not absorb larger groups (baseline %.3f)", share4, baseline4)
	}
}

func TestPopulationFrictionCountsRejections(t *testing.T) {
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	api := &rejectingAPI{}
	cfg := DefaultConfig(flights(), t0.Add(24*time.Hour))
	cfg.HoldsPerHour = 50
	pop := NewPopulation(cfg, api, nil, nil, sched, simrand.New(3), geo.Default())
	pop.Start()
	if err := sched.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if pop.Friction() == 0 {
		t.Fatal("no friction recorded against an all-rejecting defence")
	}
	if pop.Holds() != 0 {
		t.Fatal("holds succeeded against an all-rejecting defence")
	}
}

type rejectingAPI struct{}

func (rejectingAPI) RequestHold(app.ClientContext, booking.HoldRequest) (*booking.Hold, error) {
	return nil, errors.New("rejected")
}

func (rejectingAPI) Confirm(app.ClientContext, booking.HoldID) (booking.Ticket, error) {
	return booking.Ticket{}, errors.New("rejected")
}

func (rejectingAPI) Availability(app.ClientContext, booking.FlightID) (booking.Availability, error) {
	return booking.Availability{}, errors.New("rejected")
}

func TestPopulationDistinctUsersPresentCookies(t *testing.T) {
	cfg := DefaultConfig(flights(), t0.Add(24*time.Hour))
	cfg.HoldsPerHour = 60
	api, _ := run(t, cfg, 24*time.Hour, 0)
	if len(api.cookies) < 100 {
		t.Fatalf("only %d distinct cookies", len(api.cookies))
	}
	if api.cookies[""] {
		t.Fatal("human traffic sent cookieless requests")
	}
}

func TestPopulationOTPVolume(t *testing.T) {
	cfg := DefaultConfig(flights(), t0.Add(2*24*time.Hour))
	cfg.HoldsPerHour = 10
	cfg.OTPPerHour = 100
	api, pop := run(t, cfg, 2*24*time.Hour, 0)
	if api.otps < 2000 {
		t.Fatalf("otps = %d, want ~3600 over two days with diurnal dip", api.otps)
	}
	if pop.OTPs() != api.otps {
		t.Fatalf("OTPs() = %d vs %d", pop.OTPs(), api.otps)
	}
}

func TestPopulationStopsAtHorizon(t *testing.T) {
	cfg := DefaultConfig(flights(), t0.Add(12*time.Hour))
	cfg.HoldsPerHour = 60
	clock := simclock.NewManual(t0)
	sched := simclock.NewScheduler(clock)
	api := &recordingAPI{clock: clock, cookies: make(map[string]bool)}
	pop := NewPopulation(cfg, api, api, api, sched, simrand.New(4), geo.Default())
	pop.Start()
	if err := sched.RunFor(12 * time.Hour); err != nil {
		t.Fatal(err)
	}
	at12 := api.holds
	if err := sched.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if api.holds != at12 {
		t.Fatalf("holds kept arriving after horizon: %d -> %d", at12, api.holds)
	}
}
