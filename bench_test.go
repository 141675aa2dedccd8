package funabuse_test

import (
	"testing"
	"time"

	"funabuse/internal/app"
	"funabuse/internal/booking"
	"funabuse/internal/core"
	"funabuse/internal/detect"
	"funabuse/internal/fingerprint"
	"funabuse/internal/geo"
	"funabuse/internal/names"
	"funabuse/internal/proxy"
	"funabuse/internal/runner"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
	"funabuse/internal/sms"
	"funabuse/internal/weblog"
	"funabuse/internal/workload"
)

// BenchmarkExperiments regenerates each paper artefact end to end through
// its core.Experiments() row, seeds 1, 2, ...: the reported time is the
// cost of simulating the full scenario (weeks of virtual time) plus the
// analysis. It only times: each experiment's Test*Shape asserts its
// result's shape, row counts included, at seed 1.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range core.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := e.Run(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Substrate micro-benchmarks: the per-operation costs that bound how much
// virtual time the scenario benchmarks can cover per wall-clock second.

func BenchmarkBookingHoldExpireCycle(b *testing.B) {
	b.ReportAllocs()
	clock := simclock.NewManual(core.SimStart)
	sys := booking.NewSystem(clock, simrand.New(1), booking.DefaultConfig())
	sys.AddFlight(booking.Flight{ID: "F", Capacity: 1 << 30, Departure: core.SimStart.AddDate(1000, 0, 0)})
	g := names.NewGenerator(simrand.New(2))
	party := []names.Identity{g.Realistic()}
	b.ResetTimer()
	for b.Loop() {
		if _, err := sys.RequestHold(booking.HoldRequest{Flight: "F", Passengers: party}); err != nil {
			b.Fatal(err)
		}
		clock.Advance(31 * time.Minute)
	}
}

func BenchmarkFingerprintGenerate(b *testing.B) {
	b.ReportAllocs()
	g := fingerprint.NewGenerator(simrand.New(1))
	for b.Loop() {
		_ = g.Organic()
	}
}

func BenchmarkFingerprintHash(b *testing.B) {
	b.ReportAllocs()
	f := fingerprint.NewGenerator(simrand.New(1)).Organic()
	b.ResetTimer()
	for b.Loop() {
		_ = f.Hash()
	}
}

func BenchmarkFingerprintValidate(b *testing.B) {
	b.ReportAllocs()
	f := fingerprint.NewGenerator(simrand.New(1)).Organic()
	b.ResetTimer()
	for b.Loop() {
		_ = fingerprint.Validate(f)
	}
}

// BenchmarkProxyPoolBuild builds one ISP-sized exit pool, the cost
// workload.Population pays per market code per scenario arm.
func BenchmarkProxyPoolBuild(b *testing.B) {
	b.ReportAllocs()
	rng := simrand.New(1)
	for b.Loop() {
		_ = proxy.NewPool(rng, "FR", 4096)
	}
}

func BenchmarkProxyPoolDraw(b *testing.B) {
	b.ReportAllocs()
	pool := proxy.NewPool(simrand.New(1), "FR", 4096)
	b.ResetTimer()
	for b.Loop() {
		_ = pool.Draw()
	}
}

// nopSMS accepts every SMS request and counts the OTP logins, so
// BenchmarkWorkloadNewUser measures visitor creation and nothing behind it.
type nopSMS struct{ otps int }

func (s *nopSMS) RequestOTP(app.ClientContext, geo.MSISDN, string) error     { s.otps++; return nil }
func (*nopSMS) SendBoardingPass(app.ClientContext, string, geo.MSISDN) error { return nil }

// BenchmarkWorkloadNewUser runs one virtual day of OTP logins from a fresh
// population against a no-op SMS surface: every login is one new visitor
// (market draw, ISP pool built on first use, address, fingerprint, phone).
func BenchmarkWorkloadNewUser(b *testing.B) {
	b.ReportAllocs()
	users := 0
	for b.Loop() {
		sched := simclock.NewScheduler(simclock.NewManual(core.SimStart))
		until := core.SimStart.Add(24 * time.Hour)
		sms := &nopSMS{}
		pop := workload.NewPopulation(workload.Config{OTPPerHour: 400, TailMarketShare: 0.03, Until: until},
			nil, sms, nil, sched, simrand.New(1), geo.Default())
		pop.Start()
		if err := sched.RunUntil(until); err != nil {
			b.Fatal(err)
		}
		users = sms.otps
	}
	b.ReportMetric(float64(users), "users/op")
}

// BenchmarkApplicationRequestHold is one reservation attempt through the
// defended front-end with blocklists and static fingerprint checks on:
// screen, hold, weblog line, audit entry.
func BenchmarkApplicationRequestHold(b *testing.B) {
	b.ReportAllocs()
	clock := simclock.NewManual(core.SimStart)
	rng := simrand.New(1)
	bookings := booking.NewSystem(clock, rng.Derive("b"), booking.DefaultConfig())
	bookings.AddFlight(booking.Flight{ID: "F", Capacity: 1 << 30, Departure: core.SimStart.AddDate(1000, 0, 0)})
	a := core.NewApplication(clock, rng.Derive("app"), core.DefenceConfig{Blocklists: true},
		bookings, nil, sms.NewGateway(clock, geo.Default()))
	ctx := app.ClientContext{
		IP:          "10.0.0.1",
		Fingerprint: fingerprint.NewGenerator(rng.Derive("fp")).Organic(),
		ClientKey:   "u1", Cookie: "u1", Actor: weblog.ActorHuman, ActorID: "u1",
	}
	req := booking.HoldRequest{Flight: "F", Passengers: []names.Identity{names.NewGenerator(rng.Derive("id")).Realistic()}, ActorID: "u1"}
	b.ResetTimer()
	for b.Loop() {
		if _, err := a.RequestHold(ctx, req); err != nil {
			b.Fatal(err)
		}
		clock.Advance(31 * time.Minute)
	}
}

func BenchmarkSMSSend(b *testing.B) {
	b.ReportAllocs()
	clock := simclock.NewManual(core.SimStart)
	gw := sms.NewGateway(clock, geo.Default())
	to := geo.PlanFor(geo.Default().MustLookup("UZ")).Random(simrand.New(1))
	b.ResetTimer()
	for b.Loop() {
		if _, err := gw.Send(to, sms.KindBoardingPass, "LOC", "actor"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionize(b *testing.B) {
	b.ReportAllocs()
	requests := synthRequests(20000)
	b.ResetTimer()
	for b.Loop() {
		_ = weblog.Sessionize(requests, weblog.DefaultSessionGap)
	}
}

func BenchmarkFeatureExtract(b *testing.B) {
	b.ReportAllocs()
	requests := synthRequests(2000)
	sessions := weblog.Sessionize(requests, weblog.DefaultSessionGap)
	b.ResetTimer()
	for b.Loop() {
		for _, s := range sessions {
			_ = weblog.Extract(s)
		}
	}
}

func BenchmarkDamerauLevenshtein(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		_ = names.DamerauLevenshtein("CHRISTOPHER ALEXANDER", "CHRISTOPER ALEXANDRE")
	}
}

func BenchmarkNamePatternAnalyze(b *testing.B) {
	b.ReportAllocs()
	records := synthRecords(5000)
	det := detect.NewNamePatternDetector(detect.NamePatternConfig{})
	b.ResetTimer()
	for b.Loop() {
		_ = det.Analyze(records)
	}
}

func BenchmarkNiPDriftCompare(b *testing.B) {
	b.ReportAllocs()
	records := synthRecords(5000)
	drift := detect.NewNiPDrift(records, 9)
	b.ResetTimer()
	for b.Loop() {
		_ = drift.Compare(records)
	}
}

func synthRequests(n int) []weblog.Request {
	rng := simrand.New(3)
	out := make([]weblog.Request, 0, n)
	at := core.SimStart
	for i := range n {
		at = at.Add(time.Duration(rng.Intn(20)) * time.Second)
		out = append(out, weblog.Request{
			Time:        at,
			IP:          "10.0.0.1",
			Fingerprint: uint64(i % 97),
			Cookie:      "c" + string(rune('a'+i%23)),
			Method:      "GET",
			Path:        "/search",
			Status:      200,
			Actor:       weblog.ActorHuman,
		})
	}
	return out
}

func synthRecords(n int) []booking.Record {
	g := names.NewGenerator(simrand.New(4))
	rng := simrand.New(5)
	out := make([]booking.Record, 0, n)
	for i := range n {
		nip := 1 + rng.Intn(4)
		ps := make([]names.Identity, nip)
		for j := range ps {
			ps[j] = g.Realistic()
		}
		out = append(out, booking.Record{
			HoldID: booking.HoldID(i + 1), NiP: nip,
			Outcome: booking.OutcomeAccepted, Passengers: ps,
		})
	}
	return out
}

// Replicate-runner benchmarks: the cost of a seed sweep through the worker
// pool, the execution mode the industrial evaluation runs in.

// BenchmarkReplicateSweep runs the cheapest full experiment for 8
// consecutive seeds per iteration on a GOMAXPROCS-sized pool, measuring
// sweep throughput end-to-end (scenario builds, simulation, merge).
func BenchmarkReplicateSweep(b *testing.B) {
	b.ReportAllocs()
	fn, ok := core.ExperimentByID("ablations")
	if !ok {
		b.Fatal("ablations experiment missing")
	}
	for i := 0; b.Loop(); i++ {
		sum, err := runner.Run("ablations", runner.Config{
			Replicates: 8,
			BaseSeed:   uint64(8*i + 1),
		}, fn)
		if err != nil {
			b.Fatal(err)
		}
		if len(sum.Stats()) == 0 {
			b.Fatal("no stats merged")
		}
	}
}

// Clock micro-benchmarks: Manual sits on every event dispatch, so its
// read/advance costs bound scheduler throughput.

func BenchmarkManualClockNow(b *testing.B) {
	b.ReportAllocs()
	clock := simclock.NewManual(core.SimStart)
	for b.Loop() {
		_ = clock.Now()
	}
}

func BenchmarkManualClockAdvance(b *testing.B) {
	b.ReportAllocs()
	clock := simclock.NewManual(core.SimStart)
	for b.Loop() {
		_ = clock.Advance(time.Microsecond)
	}
}
