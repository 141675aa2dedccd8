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

// Paper-artefact benchmarks: each regenerates one table or figure of the
// evaluation end-to-end. The reported time is the cost of simulating the
// full scenario (weeks of virtual time) plus the analysis.

// BenchmarkFig1NiPDistribution regenerates Fig. 1 (three weeks of traffic,
// attack, cap, adaptation).
func BenchmarkFig1NiPDistribution(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := core.RunFig1(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if res.AttackerFinalNiP != 4 {
			b.Fatalf("attacker final NiP %d", res.AttackerFinalNiP)
		}
	}
}

// BenchmarkTable1SMSSurge regenerates Table I (two weeks: baseline plus
// pumping campaign, surge analysis).
func BenchmarkTable1SMSSurge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := core.RunTable1(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Top10) != 10 {
			b.Fatal("surge table truncated")
		}
	}
}

// BenchmarkCaseARotationWar regenerates the case A statistics (17 days of
// traffic with an adaptive defender and rotating attacker).
func BenchmarkCaseARotationWar(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := core.RunCaseA(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Rotations == 0 {
			b.Fatal("no rotation war")
		}
	}
}

// BenchmarkCaseBNamePatterns regenerates the case B comparison (three days
// of mixed traffic, name-pattern analysis).
func BenchmarkCaseBNamePatterns(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := core.RunCaseB(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if !res.AutoFlagged || !res.ManualFlagged {
			b.Fatal("attackers not detected")
		}
	}
}

// BenchmarkCaseCBoardingPass regenerates the case C rate-limit ablation
// (five postures, two weeks each).
func BenchmarkCaseCBoardingPass(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := core.RunCaseC(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Variants) != 5 {
			b.Fatal("ablation incomplete")
		}
	}
}

// BenchmarkDetectorComparison regenerates the Section III detector
// comparison (three days of four-class traffic, eight detector arms).
func BenchmarkDetectorComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := core.RunDetectionComparison(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Scores) != 8 {
			b.Fatal("detector set incomplete")
		}
	}
}

// BenchmarkHoneypotEconomics regenerates the Section V honeypot comparison
// (two one-week arms).
func BenchmarkHoneypotEconomics(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := core.RunHoneypot(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Arms) != 2 {
			b.Fatal("arms incomplete")
		}
	}
}

// BenchmarkEconomicDeterrent regenerates the Section V economic sweeps
// (seven three-day campaigns).
func BenchmarkEconomicDeterrent(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := core.RunEconomics(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.CaptchaSweep) == 0 {
			b.Fatal("sweep empty")
		}
	}
}

// BenchmarkBiometricDetection regenerates the Section V future-work
// experiment (per-reservation behavioural biometrics, four classes).
func BenchmarkBiometricDetection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := core.RunBiometric(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Scores) != 4 {
			b.Fatal("classes incomplete")
		}
	}
}

// BenchmarkAblations regenerates the design-choice studies (hold TTL,
// block-rule granularity, sessionization gap).
func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := core.RunAblations(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.TTL) == 0 || len(res.Granularity) == 0 || len(res.Gaps) == 0 {
			b.Fatal("ablation incomplete")
		}
	}
}

// BenchmarkCarrierMitigation regenerates the settlement-chain mitigation
// study (one campaign settled under three compensation policies).
func BenchmarkCarrierMitigation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := core.RunCarrier(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Arms) != 3 {
			b.Fatal("arms incomplete")
		}
	}
}

// BenchmarkPriceDistortion regenerates the Section II-A fare-manipulation
// study (two weeks, hourly fare sampling).
func BenchmarkPriceDistortion(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := core.RunPricing(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Samples == 0 {
			b.Fatal("no samples")
		}
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

// nopSMS accepts every SMS request, so BenchmarkWorkloadNewUser measures
// visitor creation and nothing behind it.
type nopSMS struct{}

func (nopSMS) RequestOTP(app.ClientContext, geo.MSISDN, string) error       { return nil }
func (nopSMS) SendBoardingPass(app.ClientContext, string, geo.MSISDN) error { return nil }

// BenchmarkWorkloadNewUser runs one virtual day of OTP logins from a fresh
// population against a no-op SMS surface: every login is one new visitor
// (market draw, ISP pool built on first use, address, fingerprint, phone).
func BenchmarkWorkloadNewUser(b *testing.B) {
	b.ReportAllocs()
	users := 0
	for b.Loop() {
		sched := simclock.NewScheduler(simclock.NewManual(core.SimStart))
		until := core.SimStart.Add(24 * time.Hour)
		pop := workload.NewPopulation(workload.Config{OTPPerHour: 400, TailMarketShare: 0.03, Until: until},
			nil, nopSMS{}, nil, sched, simrand.New(1), geo.Default())
		pop.Start()
		if err := sched.RunUntil(until); err != nil {
			b.Fatal(err)
		}
		users = pop.OTPs()
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
