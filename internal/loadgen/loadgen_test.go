package loadgen

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/mitigate"
	"funabuse/internal/obs"
	"funabuse/internal/simclock"
)

var t0 = time.Date(2023, time.March, 1, 0, 0, 0, 0, time.UTC)

// testScenario is the compressed mixed-traffic scenario the determinism
// and arms-race tests share: steady honest background, a Case A
// seat-spinning burst, and a Table I SMS fan-out, with second-scale
// reaction delays so the whole arms race plays out inside one minute of
// virtual time.
func testScenario(seed uint64) Scenario {
	return Scenario{
		Seed:  seed,
		Start: t0,
		Classes: []Class{
			{
				Name: "honest", Kind: Honest, Clients: 8,
				Paths:  []string{"/search", "/booking/hold", "/checkin/boardingpass/sms"},
				Phases: []Phase{{Dur: 60 * time.Second, Rate: 3}},
			},
			{
				Name: "seatspin", Kind: SeatSpin, Clients: 2,
				Paths:        []string{"/booking/hold"},
				ReactionMean: 5 * time.Second,
				Phases: []Phase{
					{Dur: 10 * time.Second, Rate: 0},
					{Dur: 50 * time.Second, Rate: 8},
				},
			},
			{
				Name: "smspump", Kind: SMSPump, Clients: 2,
				Paths:        []string{"/checkin/boardingpass/sms"},
				Resources:    50,
				ReactionMean: 5 * time.Second,
				Phases: []Phase{
					{Dur: 20 * time.Second, Rate: 0},
					{Dur: 40 * time.Second, Rate: 10},
				},
			},
		},
	}
}

// armTarget starts the defended server for one arm on the given clock.
// pathLimited adds the Table I path-level and per-reference limits on
// top of the fingerprint-rule defender.
func armTarget(t *testing.T, clock simclock.Clock, pathLimited bool) *Target {
	t.Helper()
	cfg := TargetConfig{
		Clock:         clock,
		RuleThreshold: 40,
		RuleWindow:    30 * time.Second,
		RulePaths:     []string{"/booking/hold", "/checkin/boardingpass/sms"},
	}
	if pathLimited {
		cfg.PathLimit = 300
		cfg.PathWindow = 60 * time.Second
		cfg.ResourceLimit = 6
		cfg.ResourceWindow = time.Hour
	}
	tgt, err := StartTarget(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tgt.Close() })
	return tgt
}

// runArm replays the seed's plan against a fresh arm with the given
// worker count under a virtual clock.
func runArm(t *testing.T, seed uint64, workers int, pathLimited bool) (*Result, []Rule) {
	t.Helper()
	plan, err := BuildPlan(testScenario(seed))
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewManual(t0)
	tgt := armTarget(t, clock, pathLimited)
	r, err := NewRunner(RunnerConfig{
		Plan: plan, BaseURL: tgt.URL, Workers: workers, Virtual: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, tgt.Deployer.Rules()
}

func TestBuildPlanDeterministic(t *testing.T) {
	p1, err := BuildPlan(testScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildPlan(testScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Hash() != p2.Hash() {
		t.Fatalf("same seed, different schedules: %x vs %x", p1.Hash(), p2.Hash())
	}
	p3, err := BuildPlan(testScenario(8))
	if err != nil {
		t.Fatal(err)
	}
	if p3.Hash() == p1.Hash() {
		t.Fatal("different seeds produced identical schedules")
	}
	for i := 1; i < len(p1.Arrivals); i++ {
		if p1.Arrivals[i].At.Before(p1.Arrivals[i-1].At) {
			t.Fatalf("schedule out of order at %d", i)
		}
	}
}

// classCounts returns the scheduled request count per class, in class
// order.
func classCounts(p *Plan) []int {
	counts := make([]int, len(p.Scenario.Classes))
	for _, a := range p.Arrivals {
		counts[a.Class]++
	}
	return counts
}

// TestPlanGoldenCounts pins the seed-1 schedule: the per-class request
// counts and the full-schedule hash CI asserts stay bit-identical.
func TestPlanGoldenCounts(t *testing.T) {
	plan, err := BuildPlan(testScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	counts := classCounts(plan)
	want := []int{goldenHonest, goldenSeatspin, goldenSMSPump}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("seed-1 class counts = %v, want %v", counts, want)
	}
	if got := plan.Hash(); got != goldenPlanHash {
		t.Fatalf("seed-1 plan hash = %#x, want %#x", got, goldenPlanHash)
	}
}

// TestRunWorkersGolden is the determinism acceptance test: the same seed
// replayed under the virtual clock with 1 worker and with 4 workers
// yields the identical request schedule — same per-class verdicts, same
// deployed rules, same rotation log, to the timestamp.
func TestRunWorkersGolden(t *testing.T) {
	res1, rules1 := runArm(t, 1, 1, false)
	res4, rules4 := runArm(t, 1, 4, false)

	if res1.PlanHash != res4.PlanHash {
		t.Fatalf("plan hashes differ: %#x vs %#x", res1.PlanHash, res4.PlanHash)
	}
	if !reflect.DeepEqual(res1.Classes, res4.Classes) {
		t.Fatalf("class results differ between 1 and 4 workers:\n1: %+v\n4: %+v",
			res1.Classes, res4.Classes)
	}
	if !reflect.DeepEqual(rules1, rules4) {
		t.Fatalf("deployed rules differ:\n1: %+v\n4: %+v", rules1, rules4)
	}
	for i, c := range res1.Classes {
		if c.TransportErrors != 0 {
			t.Fatalf("class %d: %d transport errors", i, c.TransportErrors)
		}
	}
}

// TestArmsRace drives the rule→rotation feedback loop end to end over
// real sockets and checks the paper's qualitative results: rules deploy,
// bots rotate after the rules that named them, honest traffic keeps
// flowing, and the path-level limits cut the attackers' leak rate.
func TestArmsRace(t *testing.T) {
	blockOnly, rulesBlock := runArm(t, 1, 2, false)
	pathLimited, rulesPath := runArm(t, 1, 2, true)

	if len(rulesBlock) == 0 {
		t.Fatal("no blocking rules deployed")
	}
	rotations := blockOnly.Rotations()
	if len(rotations) == 0 {
		t.Fatal("no fingerprint rotations despite blocking rules")
	}
	ruleAt := make(map[uint64]time.Time, len(rulesBlock))
	for _, r := range rulesBlock {
		ruleAt[r.FP] = r.At
	}
	joined := 0
	for _, rot := range rotations {
		if at, ok := ruleAt[rot.FromFP]; ok {
			joined++
			if !rot.At.After(at) {
				t.Fatalf("rotation at %v not after its rule at %v", rot.At, at)
			}
		}
		if ttr := TimeToRotation(rot, rulesBlock); ttr <= 0 {
			t.Fatalf("time-to-rotation %v <= 0", ttr)
		}
	}
	if joined == 0 {
		t.Fatal("no rotation joined to a deployed rule")
	}
	if mean, ok := MeanTimeToRotation(rotations, rulesBlock); !ok || mean <= 0 {
		t.Fatalf("mean time-to-rotation = %v, ok=%v", mean, ok)
	}

	leakBlock, ok := blockOnly.AbusiveLeakRate()
	if !ok || leakBlock <= 0 || leakBlock >= 1 {
		t.Fatalf("block-only leak rate = %v, ok=%v; want inside (0,1)", leakBlock, ok)
	}
	leakPath, ok := pathLimited.AbusiveLeakRate()
	if !ok {
		t.Fatal("path-limited arm completed nothing")
	}
	if leakPath >= leakBlock {
		t.Fatalf("path-level limits did not cut leakage: %v >= %v", leakPath, leakBlock)
	}
	if len(rulesPath) == 0 {
		t.Fatal("path-limited arm deployed no rules")
	}

	for _, res := range []*Result{blockOnly, pathLimited} {
		honest := res.Classes[0]
		if honest.Kind != Honest {
			t.Fatal("class 0 is not the honest class")
		}
		admitRate := float64(honest.Admitted) / float64(honest.Completed())
		if admitRate < 0.9 {
			t.Fatalf("honest admit rate %v < 0.9 (denied: %v)", admitRate, honest.Denied)
		}
	}
}

// TestRuleDeployerWindowAndThreshold exercises the defender in
// isolation: the threshold trips exactly once per fingerprint, blocklist
// denials do not count, and window tumbling forgets old volume.
func TestRuleDeployerWindowAndThreshold(t *testing.T) {
	clock := simclock.NewManual(t0)
	blocks := mitigate.NewBlockList(0)
	hook, d := decisionHook(TargetConfig{Clock: clock, RuleThreshold: 3, RuleWindow: 10 * time.Second}, blocks)
	req := httptest.NewRequest(http.MethodGet, "/booking/hold", nil)
	info := httpgate.ClientInfo{Fingerprint: 0xbeef, HasFingerprint: true}

	hook(req, info, "")
	hook(req, info, httpgate.ReasonBlocklist) // must not count
	hook(req, info, "")
	if len(d.Rules()) != 0 {
		t.Fatal("rule deployed below threshold")
	}
	hook(req, info, httpgate.ReasonPathLimit) // rate-limited still counts
	rules := d.Rules()
	if len(rules) != 1 || rules[0].FP != 0xbeef {
		t.Fatalf("rules = %+v, want one for beef", rules)
	}
	if !blocks.Blocked("fp:beef", clock.Now()) {
		t.Fatal("fingerprint not on the deny list")
	}
	// More volume from the same print must not duplicate the rule.
	for range 5 {
		hook(req, info, "")
	}
	if len(d.Rules()) != 1 {
		t.Fatalf("duplicate rules: %+v", d.Rules())
	}

	// A second print's volume split across two windows never trips.
	info2 := httpgate.ClientInfo{Fingerprint: 0xcafe, HasFingerprint: true}
	hook(req, info2, "")
	hook(req, info2, "")
	clock.Advance(11 * time.Second)
	hook(req, info2, "")
	hook(req, info2, "")
	if len(d.Rules()) != 1 {
		t.Fatalf("window tumble failed to reset counts: %+v", d.Rules())
	}
}

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"no classes", Scenario{Seed: 1}},
		{"no clients", Scenario{Classes: []Class{{Name: "x", Paths: []string{"/"}, Phases: []Phase{{Dur: time.Second, Rate: 1}}}}}},
		{"no paths", Scenario{Classes: []Class{{Name: "x", Clients: 1, Phases: []Phase{{Dur: time.Second, Rate: 1}}}}}},
		{"no phases", Scenario{Classes: []Class{{Name: "x", Clients: 1, Paths: []string{"/"}}}}},
		{"negative rate", Scenario{Classes: []Class{{Name: "x", Clients: 1, Paths: []string{"/"}, Phases: []Phase{{Dur: time.Second, Rate: -1}}}}}},
	}
	for _, tc := range cases {
		if err := tc.sc.Validate(); err == nil {
			t.Errorf("%s: invalid scenario accepted", tc.name)
		}
	}
	if _, err := BuildPlan(Scenario{}); err == nil {
		t.Error("BuildPlan accepted an empty scenario")
	}
}

func TestDegradedLists(t *testing.T) {
	cases := []struct {
		header, layer string
		want          bool
	}{
		{"", "blocklist", false},
		{"blocklist", "blocklist", true},
		{"challenge,blocklist", "blocklist", true},
		{"challenge,path", "blocklist", false},
		{"blocklisted", "blocklist", false},
	}
	for _, tc := range cases {
		if got := degradedLists(tc.header, tc.layer); got != tc.want {
			t.Errorf("degradedLists(%q, %q) = %v, want %v", tc.header, tc.layer, got, tc.want)
		}
	}
}

// TestHonestIdentityStable pins the honest contract: one fingerprint,
// session and address for the whole run, no reactions.
func TestHonestIdentityStable(t *testing.T) {
	plan, err := BuildPlan(testScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(RunnerConfig{Plan: plan, BaseURL: "http://unused"})
	if err != nil {
		t.Fatal(err)
	}
	cl := r.fleets[0][0]
	fp1, sid1, ip1, rot1 := cl.identity(t0)
	cl.observe(t0, "blocklist", false)
	fp2, sid2, ip2, rot2 := cl.identity(t0.Add(time.Hour))
	if fp1 != fp2 || sid1 != sid2 || ip1 != ip2 || rot1 || rot2 {
		t.Fatalf("honest identity drifted: %v/%v/%v -> %v/%v/%v", fp1, sid1, ip1, fp2, sid2, ip2)
	}
}

// TestBotRotatesOnlyOnBlocklist pins the adaptation contract: rate-limit
// denials and degraded-blocklist denials do not trigger rotation, a real
// blocklist denial does, after the reaction delay.
func TestBotRotatesOnlyOnBlocklist(t *testing.T) {
	plan, err := BuildPlan(testScenario(3))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(RunnerConfig{Plan: plan, BaseURL: "http://unused"})
	if err != nil {
		t.Fatal(err)
	}
	bot := r.fleets[1][0]

	fp1, _, _, _ := bot.identity(t0)
	bot.observe(t0, httpgate.ReasonPathLimit, false)
	bot.observe(t0, httpgate.ReasonBlocklist, true) // degraded: not rule evidence
	if !bot.pendingAt.IsZero() {
		t.Fatal("rotation scheduled without rule evidence")
	}
	bot.observe(t0, httpgate.ReasonBlocklist, false)
	if bot.pendingAt.IsZero() {
		t.Fatal("blocklist denial did not schedule a rotation")
	}
	// Before the reaction delay elapses the identity holds...
	fp2, _, _, rotated := bot.identity(t0.Add(time.Millisecond))
	if rotated || fp2 != fp1 {
		t.Fatal("rotated before the reaction delay")
	}
	// ...and afterwards a fresh identity is presented.
	fp3, _, _, rotated3 := bot.identity(t0.Add(time.Hour))
	if !rotated3 || fp3 == fp1 {
		t.Fatal("no rotation after the reaction delay")
	}
	rots := bot.takeRotations()
	if len(rots) != 1 || rots[0].NoticedAt != t0 {
		t.Fatalf("rotation log = %+v", rots)
	}
}

// TestRunnerTelemetryMatchesResult runs an instrumented replay and
// checks the registry's live counters agree with the Result and that the
// exposition round-trips through the strict parser.
func TestRunnerTelemetryMatchesResult(t *testing.T) {
	plan, err := BuildPlan(testScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewManual(t0)
	tgt := armTarget(t, clock, true)
	reg := obs.NewRegistry()
	r, err := NewRunner(RunnerConfig{
		Plan: plan, BaseURL: tgt.URL, Workers: 2, Virtual: clock, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("loadgen exposition unparseable: %v\n%s", err, b.String())
	}
	byID := make(map[string]float64)
	for _, s := range samples {
		id := s.Name
		for _, l := range s.Labels {
			id += "|" + l.Name + "=" + l.Value
		}
		byID[id] = s.Value
	}
	for i, c := range res.Classes {
		name := plan.Scenario.Classes[i].Name
		if got := byID[metricRequests+"|class="+name+"|verdict=admit"]; got != float64(c.Admitted) {
			t.Fatalf("class %s: scraped admit %v != result %d", name, got, c.Admitted)
		}
		if got := byID[metricRotations+"|class="+name]; got != float64(len(c.Rotations)) {
			t.Fatalf("class %s: scraped rotations %v != result %d", name, got, len(c.Rotations))
		}
		for reason, n := range c.Denied {
			if got := byID[metricRequests+"|class="+name+"|verdict="+reason]; got != float64(n) {
				t.Fatalf("class %s: scraped %s %v != result %d", name, reason, got, n)
			}
		}
		if got := byID[metricLatency+"_count|class="+name]; got != float64(c.Completed()) {
			t.Fatalf("class %s: latency count %v != completed %d", name, got, c.Completed())
		}
	}
}

func BenchmarkBuildPlan(b *testing.B) {
	sc := testScenario(1)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildPlan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestResultRates pins the aggregate helpers every fraudsim report shares
// on a hand-built result: Completed sums over all classes, and the two
// admit rates split exactly on Kind.Abusive, each reporting !ok when its
// side completed nothing.
func TestResultRates(t *testing.T) {
	res := &Result{Classes: []ClassResult{
		{Kind: Honest, Sent: 10, TransportErrors: 2, Admitted: 6},
		{Kind: Honest, Sent: 4, Admitted: 4},
		{Kind: SeatSpin, Sent: 20, Admitted: 5},
	}}
	if got := res.Completed(); got != 32 {
		t.Fatalf("Completed = %d, want 32", got)
	}
	if rate, ok := res.HonestAdmitRate(); !ok || rate != 10.0/12.0 {
		t.Fatalf("HonestAdmitRate = %v, %v; want %v, true", rate, ok, 10.0/12.0)
	}
	if rate, ok := res.AbusiveLeakRate(); !ok || rate != 0.25 {
		t.Fatalf("AbusiveLeakRate = %v, %v; want 0.25, true", rate, ok)
	}

	honestOnly := &Result{Classes: res.Classes[:2]}
	if _, ok := honestOnly.AbusiveLeakRate(); ok {
		t.Fatal("AbusiveLeakRate ok with no abusive class")
	}
	if _, ok := (&Result{Classes: res.Classes[2:]}).HonestAdmitRate(); ok {
		t.Fatal("HonestAdmitRate ok with no honest class")
	}
}
