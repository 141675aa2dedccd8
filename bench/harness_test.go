package main

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/loadgen"
	"funabuse/internal/mitigate"
	"funabuse/internal/runner"
)

func TestSupportedPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {52, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}, {5000000, 99.99}} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {0, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(xs, n=4);
// these are that function's outputs.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 8, 4, 6}, 3, 9},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare(1..10) = %g, want 1", got)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanRequest, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanHandle, Start: 10, End: 90},  // nested in 1
		{ID: 3, Parent: 2, Name: spanBackend, Start: 20, End: 50}, // nested in 2
		{ID: 4, Parent: 2, Name: spanBackend, Start: 40, End: 70}, // overlaps 3
		{ID: 5, Parent: 2, Name: spanBackend, Start: 85, End: 95}, // sticks out of 2
	}
	want := []int64{
		100 - 80,      // 1: minus child 2
		80 - (50 + 5), // 2: minus union [20,70] and the clipped [85,90]
		30, 30, 10,    // leaves keep their whole duration
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

func TestJoinByRequestLinksAcrossTheSocket(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanRequest, Req: 7, Start: 0, End: 100},
		{ID: 2, Name: spanHandle, Req: 7, Start: 30, End: 60},
		{ID: 3, Name: spanHandle, Req: 8, Start: 30, End: 60}, // its client span is missing
	}
	joinByRequest(spans, spanHandle, spanRequest)
	if spans[1].Parent != 1 || spans[2].Parent != 0 {
		t.Fatalf("parents = %d, %d, want 1, 0", spans[1].Parent, spans[2].Parent)
	}
	if self := selfTimes(spans); self[0] != 70 {
		t.Errorf("client self time = %d, want 70", self[0])
	}
}

func TestSeededIdentityMappingIsReproducible(t *testing.T) {
	plan, err := loadgen.BuildPlan(gateScenario(3, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	seenIP := make(map[string]bool)
	for i, a := range plan.Arrivals {
		for _, churn := range []bool{false, true} {
			id := arrivalIdentity(3, i, a, churn)
			if again := arrivalIdentity(3, i, a, churn); again != id {
				t.Fatalf("arrival %d churn=%v: %v then %v", i, churn, id, again)
			}
			if other := arrivalIdentity(4, i, a, churn); other.FP == id.FP || other.Session == id.Session {
				t.Fatalf("arrival %d: seeds 3 and 4 share identity bits", i)
			}
			if net.ParseIP(id.IP) == nil {
				t.Fatalf("arrival %d: address %q does not parse", i, id.IP)
			}
			if churn {
				if seenIP[id.IP] {
					t.Fatalf("arrival %d: fresh identity reuses address %s", i, id.IP)
				}
				seenIP[id.IP] = true
			}
		}
	}
	// A stable client keeps its identity from one arrival to the next.
	a, b := plan.Arrivals[0], plan.Arrivals[0]
	b.Seq++
	if arrivalIdentity(3, 0, a, false).Session != arrivalIdentity(3, 99, b, false).Session {
		t.Error("a stable client's session changed between arrivals")
	}
}

// exchange writes req on a fresh connection to addr, parses the answer with
// readResponse and returns it beside net/http's reading of the same bytes.
func exchange(t *testing.T, addr string, req []byte) (response, *http.Response) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	got, err := readResponse(bufio.NewReader(io.TeeReader(c, &raw)))
	if err != nil {
		t.Fatalf("readResponse: %v", err)
	}
	std, err := http.ReadResponse(bufio.NewReader(&raw), nil)
	if err != nil {
		t.Fatalf("http.ReadResponse on the same bytes: %v", err)
	}
	if _, err := io.Copy(io.Discard, std.Body); err != nil {
		t.Fatalf("net/http could not read the body readResponse skipped: %v", err)
	}
	return got, std
}

func TestRawResponseReaderAgreesWithNetHTTP(t *testing.T) {
	blocks := mitigate.NewBlockList(0)
	gate := httpgate.New(httpgate.Config{
		Blocks: blocks, TrustForwardedFor: true, RequireFingerprint: true,
		PathLimit: 1, PathWindow: time.Hour,
	})
	srv := httptest.NewServer(gate.Wrap(okBackend))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	honest := identityFor(1, stableID(classSearch, 1))
	bot := identityFor(1, stableID(classSpin, 0))
	blocks.Block(fpRule(bot.FP), time.Now())
	for _, tc := range []struct {
		name   string
		req    []byte
		status int
		reason string
	}{
		{"admitted", rawRequest(loadgen.PathSearch, honest, 1, false), http.StatusOK, ""},
		{"blocklisted 403", rawRequest(loadgen.PathHold, bot, 2, true), http.StatusForbidden, httpgate.ReasonBlocklist},
		{"rate-limited 429", rawRequest(loadgen.PathSearch, honest, 3, false), http.StatusTooManyRequests, httpgate.ReasonPathLimit},
	} {
		got, std := exchange(t, addr, tc.req)
		if got.Status != std.StatusCode || got.DeniedBy != std.Header.Get(httpgate.ReasonHeader) {
			t.Errorf("%s: readResponse says %d %q, net/http says %d %q", tc.name,
				got.Status, got.DeniedBy, std.StatusCode, std.Header.Get(httpgate.ReasonHeader))
		}
		if got.Status != tc.status || got.DeniedBy != tc.reason {
			t.Errorf("%s: got %d %q, want %d %q", tc.name, got.Status, got.DeniedBy, tc.status, tc.reason)
		}
	}
}

func TestRawResponseReaderRejectsWhatItCannotParse(t *testing.T) {
	for _, raw := range []string{
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nok\n\r\n0\r\n\r\n",
		"HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
		"garbage\r\n\r\n",
	} {
		if _, err := readResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("readResponse accepted %q", raw)
		}
	}
}

func TestGoldenCheckerRejectsPerturbedOutputs(t *testing.T) {
	pinned := &verdicts{Admitted: 90, Denied: map[string]int{httpgate.ReasonBlocklist: 10}}
	gold := &golden{Seed: goldenSeed,
		Plans:   map[string]goldenPlan{"w": {PlanHash: "abc", Verdicts: *pinned}},
		Digests: map[string]string{"fig1/1": "d1"}}

	rep := newReport("w", goldenSeed, false)
	gold.checkGate(rep, "w", 0xabc, pinned)
	gold.checkDigest(rep, "fig1/1", "d1")
	if !rep.ok() {
		t.Fatalf("the pinned outputs failed their own check: %v", rep.Failures)
	}

	rep = newReport("w", goldenSeed, false)
	gold.checkGate(rep, "w", 0xabc, &verdicts{Admitted: 89, Denied: map[string]int{httpgate.ReasonBlocklist: 11}})
	if rep.ok() || rep.Failed != 1 {
		t.Errorf("one flipped verdict: ok=%v failed=%d, want a failure counting 1", rep.ok(), rep.Failed)
	}
	rep = newReport("w", goldenSeed, false)
	gold.checkGate(rep, "w", 0xabd, pinned)
	if rep.ok() {
		t.Error("a different plan hash passed")
	}
	rep = newReport("w", goldenSeed, false)
	gold.checkDigest(rep, "fig1/1", "d2")
	if rep.ok() || rep.Failed != 1 {
		t.Errorf("a wrong digest: ok=%v failed=%d, want a failure counting 1", rep.ok(), rep.Failed)
	}
	rep = newReport("w", goldenSeed, false)
	gold.checkDigest(rep, "fig1/9", "d1")
	if rep.ok() {
		t.Error("a digest with no golden passed")
	}

	// Another seed has no goldens: every check is a no-op.
	other, err := loadGolden(goldenSeed+1, false)
	if err != nil || other != nil {
		t.Fatalf("loadGolden(seed 2) = %v, %v, want nil, nil", other, err)
	}
	rep = newReport("w", goldenSeed+1, false)
	other.checkGate(rep, "w", 1, pinned)
	other.checkDigest(rep, "fig1/1", "zz")
	if !rep.ok() {
		t.Error("a seed without goldens failed a golden check")
	}
}

func TestCommittedGoldenCoversEveryWorkloadAndExperiment(t *testing.T) {
	gold, err := loadGolden(goldenSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads[:4] {
		if _, ok := gold.Plans[w.name]; !ok {
			t.Errorf("no pinned plan for %s", w.name)
		}
	}
	for _, id := range experimentIDs {
		for _, seed := range []string{"1", "2"} {
			if gold.Digests[id+"/"+seed] == "" {
				t.Errorf("no pinned digest for %s/%s", id, seed)
			}
		}
	}
}

func TestSampleDigestSeesEveryBit(t *testing.T) {
	a := runner.Sample{{Name: "x", Value: 1}, {Name: "y", Value: 2}}
	b := runner.Sample{{Name: "x", Value: 1}, {Name: "y", Value: math.Nextafter(2, 3)}}
	if sampleDigest(a) != sampleDigest(a) || sampleDigest(a) == sampleDigest(b) {
		t.Error("sampleDigest must be stable and change with the last bit of any value")
	}
}

func TestWithinBoundUsesFloorThenRelativeBound(t *testing.T) {
	d := metricDef{Bound: 0.10, Floor: 0.05}
	for _, tc := range []struct {
		first, second float64
		ok            bool
	}{
		{100, 109, true},   // 9% < 10%
		{100, 111, false},  // 11% > 10%
		{0.01, 0.05, true}, // 400% but under the floor
		{0, 0.04, true},    // zero reference, under the floor
		{0, 0.5, false},    // zero reference, over the floor
	} {
		if _, ok := withinBound(d, tc.first, tc.second); ok != tc.ok {
			t.Errorf("withinBound(%g, %g) = %v, want %v", tc.first, tc.second, ok, tc.ok)
		}
	}
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, describeBenchmark()) {
		t.Error("BENCHMARK.json differs from `go run -C bench . -describe`; regenerate it")
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, d := range contractMetrics(false) {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: an end_to_end bound must be in (0, 0.25], is %g", d.Name, d.Bound)
		}
	}
}

func TestContractMetricSetsAreDisjointAndComplete(t *testing.T) {
	seen := make(map[string]bool)
	for _, traced := range []bool{false, true} {
		for _, d := range contractMetrics(traced) {
			if seen[d.Name] {
				t.Errorf("%s is promised by both passes", d.Name)
			}
			seen[d.Name] = true
			if traced == d.Gated {
				t.Errorf("%s: gated metrics belong to the untraced pass only", d.Name)
			}
		}
	}
	if want := len(endToEnd) + len(perLayer); len(seen) != want {
		t.Errorf("%d metrics promised, %d defined", len(seen), want)
	}
}
