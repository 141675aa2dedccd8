package httpgate

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"funabuse/internal/entitygraph"
	"funabuse/internal/mitigate"
	"funabuse/internal/obs"
	"funabuse/internal/signal"
	"funabuse/internal/simclock"
)

// The seven check layers as bits of a batchFixture layer set.
const (
	fxBlocklist = 1 << iota
	fxEntity
	fxAccount
	fxChallenge
	fxProfile
	fxResource
	fxPath
	fxAll = 1<<iota - 1
	// fxClassic is the original fixture: the five layers that predate the
	// entity and account ones.
	fxClassic = fxBlocklist | fxChallenge | fxProfile | fxResource | fxPath
)

// batchFixture is one gate plus the handles the equivalence test
// compares. Handles a fixture does not carry (nil registry, ring or
// limiter) are skipped by the comparison.
type batchFixture struct {
	g       *Gate
	clock   *simclock.Manual
	reg     *obs.Registry
	ring    *obs.TraceRing
	journal []string
	// The keyed limiters behind the profile, resource and path layers:
	// the gate's built-ins, or for resource the one the custom CheckFunc
	// wraps.
	limiters [3]*signal.Limiter
}

// newBatchFixture builds a gate with the given subset of check layers on
// — plus RequireFingerprint, the decision journal, resilience guards and
// full telemetry — either over the built-in implementations or, with
// custom, with the blocklist and resource layers on the CheckFunc seams
// wrapping equivalent state. The custom resource check advances the clock
// 1 ms per call, as a remote quota service would, so decision latencies
// differ per request.
func newBatchFixture(t *testing.T, layers int, custom bool) *batchFixture {
	t.Helper()
	f := &batchFixture{
		clock: simclock.NewManual(t0),
		reg:   obs.NewRegistry(),
		ring:  obs.NewTraceRing(4096),
	}
	cfg := Config{
		Clock:              f.clock,
		RequireFingerprint: true,
		OnDecision: func(r *http.Request, info ClientInfo, deniedBy string) {
			f.journal = append(f.journal, info.ClientKey+"|"+r.URL.Path+"|"+deniedBy)
		},
	}
	if layers&fxBlocklist != 0 {
		blocks := mitigate.NewBlockList(0)
		blocks.Block("ip:10.0.0.5", t0)
		blocks.Block("ck:user-8", t0)
		if custom {
			cfg.BlocklistFunc = func(key string, now time.Time) (bool, error) { return blocks.Blocked(key, now), nil }
		} else {
			cfg.Blocks = blocks
		}
	}
	if layers&fxEntity != 0 {
		graph := entitygraph.New(entitygraph.Config{MinSize: 3, MinTypes: 2, FlagScore: 1})
		graph.Observe([]string{"fp:6", "ip:10.0.0.4", "ck:user-5"}, 2)
		cfg.Entities = graph
	}
	if layers&fxAccount != 0 {
		cfg.Accounts = &AccountPolicy{
			Lookup:     tierMap{"user-1": 1, "user-2": 3},
			Restricted: map[string]int{"/p/3": 1},
			BaseLimit:  4,
			Window:     time.Minute,
		}
	}
	if layers&fxChallenge != 0 {
		cfg.Challenge = func(r *http.Request, info ClientInfo) bool { return r.Header.Get("X-Challenge") != "deny" }
	}
	if layers&fxProfile != 0 {
		cfg.ProfileLimit, cfg.ProfileWindow = 3, time.Minute
	}
	if layers&fxResource != 0 {
		cfg.ResourceKey = func(r *http.Request) string { return r.URL.Query().Get("pnr") }
		if custom {
			lim := signal.NewLimiter(signal.LimiterConfig{Window: time.Minute, Limit: 20})
			f.limiters[1] = lim
			cfg.ResourceCheck = func(key string, now time.Time) (bool, error) {
				f.clock.Advance(time.Millisecond)
				return lim.Allow(key, now), nil
			}
		} else {
			cfg.ResourceLimit, cfg.ResourceWindow = 20, time.Minute
		}
	}
	if layers&fxPath != 0 {
		cfg.PathLimit, cfg.PathWindow = 40, time.Minute
	}
	f.g = New(cfg, WithResilience(ResilienceConfig{}), WithTelemetry(f.reg), WithTraces(f.ring))
	f.limiters[0], f.limiters[2] = f.g.profile, f.g.path
	if !custom {
		f.limiters[1] = f.g.resource
	}
	return f
}

// batchStreamRequest derives the i-th request of the deterministic mixed
// stream: rotating paths, client keys (some empty), IPs (one blocked),
// fingerprints (sometimes missing, triggering RequireFingerprint),
// challenge denials and resource keys, so every layer produces both
// verdicts somewhere in the stream.
func batchStreamRequest(i int) Request {
	r := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/p/%d?pnr=PNR%d", i%5, i%4), nil)
	r.RemoteAddr = fmt.Sprintf("10.0.0.%d:4711", i%6)
	if i%17 == 0 {
		r.Header.Set("X-Challenge", "deny")
	}
	info := ClientInfo{IP: fmt.Sprintf("10.0.0.%d", i%6)}
	if i%13 != 0 {
		info.Fingerprint = uint64(i % 7)
		info.HasFingerprint = true
	}
	if i%11 != 0 {
		info.ClientKey = "user-" + strconv.Itoa(i%9)
	}
	return Request{R: r, Info: info}
}

// mixedStream is the first n requests of batchStreamRequest.
func mixedStream(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = batchStreamRequest(i)
	}
	return reqs
}

// entityBatchFixture and accountBatchFixture are the single-layer gates
// (and streams) the entity and account layers were first checked with:
// one round holding every request, resilience on, no telemetry.
func entityBatchFixture(t *testing.T) *batchFixture {
	clock := simclock.NewManual(t0)
	return &batchFixture{clock: clock, g: New(Config{
		Clock:      clock,
		Entities:   flaggedGraph(t),
		PathLimit:  1 << 30,
		PathWindow: time.Hour,
	}, WithResilience(ResilienceConfig{}))}
}

func entityBatchStream() []Request {
	r := httptest.NewRequest(http.MethodPost, "/booking/hold", nil)
	var reqs []Request
	for _, info := range []ClientInfo{
		{IP: "198.51.100.1", Fingerprint: 0xabc, HasFingerprint: true},
		{IP: "198.51.100.2", Fingerprint: 0xdef, HasFingerprint: true},
		{IP: "203.0.113.66"},
		{IP: "198.51.100.3", ClientKey: "syn-1"},
		{IP: "198.51.100.4", ClientKey: "user-9"},
	} {
		reqs = append(reqs, Request{R: r, Info: info})
	}
	return reqs
}

func accountBatchFixture(*testing.T) *batchFixture {
	clock := simclock.NewManual(t0)
	return &batchFixture{clock: clock, g: New(Config{
		Clock:      clock,
		PathLimit:  1 << 30,
		PathWindow: time.Hour,
	}, WithResilience(ResilienceConfig{}), WithAccounts(AccountPolicy{
		Lookup:     tierMap{"vip": 3},
		Restricted: map[string]int{"/seatmap/bulk": 1},
		BaseLimit:  1,
		Window:     time.Hour,
	}))}
}

func accountBatchStream() []Request {
	restricted := httptest.NewRequest(http.MethodGet, "/seatmap/bulk", nil)
	open := httptest.NewRequest(http.MethodGet, "/search", nil)
	return []Request{
		{R: restricted, Info: ClientInfo{IP: "198.51.100.1", ClientKey: "guest-1"}},
		{R: open, Info: ClientInfo{IP: "198.51.100.1", ClientKey: "guest-1"}},
		{R: open, Info: ClientInfo{IP: "198.51.100.2"}},
		{R: restricted, Info: ClientInfo{IP: "198.51.100.3", ClientKey: "vip"}},
		{R: open, Info: ClientInfo{IP: "198.51.100.4", ClientKey: "guest-2"}},
		{R: open, Info: ClientInfo{IP: "198.51.100.4", ClientKey: "guest-2"}},
	}
}

// TestDecideBatchMatchesSequential is the batch API's golden equivalence
// test: the same deterministic request stream through per-request Decide
// on one gate and through DecideBatch on a twin, with the clocks advanced
// in lockstep at chunk boundaries (assertBatchMatchesSequential lists
// what must agree). The batch=N rows run the mixed stream — every classic
// layer's admit and deny paths, resilience guards and full telemetry on —
// at batch sizes 1, 7 and 64; the entity and account rows are those
// layers' own fixtures; the seam rows repeat the mixed stream over every
// on/off subset of the seven check layers, once on the built-in
// implementations and once with the blocklist and resource layers on the
// custom CheckFunc seams.
func TestDecideBatchMatchesSequential(t *testing.T) {
	classic := func(t *testing.T) *batchFixture { return newBatchFixture(t, fxClassic, false) }
	for _, batch := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			assertBatchMatchesSequential(t, "", classic, mixedStream(256), batch)
		})
	}
	t.Run("entity", func(t *testing.T) {
		reqs := entityBatchStream()
		assertBatchMatchesSequential(t, "", entityBatchFixture, reqs, len(reqs))
	})
	t.Run("account", func(t *testing.T) {
		reqs := accountBatchStream()
		assertBatchMatchesSequential(t, "", accountBatchFixture, reqs, len(reqs))
	})
	for _, seam := range []string{"builtin", "custom"} {
		t.Run("seam="+seam, func(t *testing.T) {
			reqs := mixedStream(256)
			for layers := 0; layers <= fxAll; layers++ {
				build := func(t *testing.T) *batchFixture { return newBatchFixture(t, layers, seam == "custom") }
				for _, batch := range []int{1, 7, 64} {
					assertBatchMatchesSequential(t, fmt.Sprintf("layers %07b batch %d: ", layers, batch), build, reqs, batch)
				}
			}
		})
	}
}

// assertBatchMatchesSequential drives reqs in chunks of batch through
// Decide on one fixture and DecideBatch on its twin. Verdicts must match
// request for request, and the gates' counters, limiter denial totals,
// per-reason and per-tier telemetry, trace journals and decision journals
// must agree, down to the latency histogram's sum and buckets and each
// span's duration. what prefixes failure messages.
func assertBatchMatchesSequential(t *testing.T, what string, build func(*testing.T) *batchFixture, reqs []Request, batch int) {
	t.Helper()
	seq, bat := build(t), build(t)
	out := make([]Decision, 0, batch)
	for start := 0; start < len(reqs); start += batch {
		chunk := reqs[start:min(start+batch, len(reqs))]
		want := make([]Decision, len(chunk))
		for j, rq := range chunk {
			want[j] = seq.g.Decide(rq.R, rq.Info)
		}
		out = bat.g.DecideBatch(chunk, out)
		for j := range chunk {
			if out[j] != want[j] {
				t.Fatalf("%srequest %d: batch %+v, sequential %+v", what, start+j, out[j], want[j])
			}
		}
		seq.clock.Advance(time.Second)
		bat.clock.Advance(time.Second)
	}

	if a, b := seq.g.admitted.Load(), bat.g.admitted.Load(); a != b {
		t.Fatalf("%sadmitted diverge: sequential %d, batch %d", what, a, b)
	}
	if a, b := seq.g.denied.Load(), bat.g.denied.Load(); a != b {
		t.Fatalf("%sdenied diverge: sequential %d, batch %d", what, a, b)
	}
	if a, b := seq.g.degraded.Load(), bat.g.degraded.Load(); a != b {
		t.Fatalf("%sdegraded diverge: sequential %d, batch %d", what, a, b)
	}
	for i, name := range []string{"profile", "resource", "path"} {
		if seq.limiters[i] == nil {
			continue
		}
		if a, b := seq.limiters[i].Denials(), bat.limiters[i].Denials(); a != b {
			t.Fatalf("%s%s limiter denials diverge: sequential %d, batch %d", what, name, a, b)
		}
	}

	// Per-reason denial counters, per-tier account counters and the
	// latency histogram: count, sum and every bucket.
	if seq.reg != nil {
		sg, bg := seq.reg.Gather(), bat.reg.Gather()
		for _, s := range sg {
			if s.Name != MetricDenials && s.Name != MetricAccountTier && !strings.HasPrefix(s.Name, MetricLatency+"_") {
				continue
			}
			if b := findSample(t, bg, s.Name, s.Labels...); s.Value != b {
				t.Fatalf("%s%s%v diverge: sequential %v, batch %v", what, s.Name, s.Labels, s.Value, b)
			}
		}
	}

	// Decision journals: same entries in the same order.
	if len(seq.journal) != len(bat.journal) {
		t.Fatalf("%sjournal lengths diverge: sequential %d, batch %d", what, len(seq.journal), len(bat.journal))
	}
	for i := range seq.journal {
		if seq.journal[i] != bat.journal[i] {
			t.Fatalf("%sjournal[%d] diverges: sequential %q, batch %q", what, i, seq.journal[i], bat.journal[i])
		}
	}
	// Trace journals: same verdicts, paths and durations.
	if seq.ring != nil {
		ss, bs := seq.ring.Snapshot(), bat.ring.Snapshot()
		if len(ss) != len(bs) {
			t.Fatalf("%strace lengths diverge: %d vs %d", what, len(ss), len(bs))
		}
		for i := range ss {
			if ss[i].Verdict != bs[i].Verdict || ss[i].Path != bs[i].Path || ss[i].Dur != bs[i].Dur {
				t.Fatalf("%sspan %d diverges: sequential %s@%s in %v, batch %s@%s in %v",
					what, i, ss[i].Verdict, ss[i].Path, ss[i].Dur, bs[i].Verdict, bs[i].Path, bs[i].Dur)
			}
		}
	}
}

// TestDecideBatchDegradedMatchesSequential repeats the equivalence check
// with a custom resource check whose breaker has been driven open: the
// batch entry point must produce the same per-request masks, verdicts and
// breaker state as sequential decide.
func TestDecideBatchDegradedMatchesSequential(t *testing.T) {
	build := func() (*Gate, *simclock.Manual) {
		clock := simclock.NewManual(t0)
		g := New(Config{
			Clock:       clock,
			ResourceKey: func(r *http.Request) string { return QueryValue(r, "pnr") },
			ResourceCheck: func(key string, now time.Time) (bool, error) {
				return false, fmt.Errorf("quota store down")
			},
			PathLimit:  1 << 30,
			PathWindow: time.Hour,
		}, WithResilience(ResilienceConfig{}))
		return g, clock
	}
	seqG, seqC := build()
	batG, batC := build()
	const total = 96
	out := make([]Decision, 0, 8)
	for start := 0; start < total; start += 8 {
		reqs := make([]Request, 8)
		for j := range reqs {
			reqs[j] = batchStreamRequest(start + j)
		}
		want := make([]Decision, len(reqs))
		for j, rq := range reqs {
			want[j] = seqG.Decide(rq.R, rq.Info)
		}
		out = batG.DecideBatch(reqs, out)
		for j := range reqs {
			if out[j] != want[j] {
				t.Fatalf("request %d: batch %+v, sequential %+v", start+j, out[j], want[j])
			}
		}
		seqC.Advance(time.Second)
		batC.Advance(time.Second)
	}
	if seqG.guards[LayerResource].breaker.State() != batG.guards[LayerResource].breaker.State() {
		t.Fatalf("breaker states diverge: sequential %v, batch %v",
			seqG.guards[LayerResource].breaker.State(), batG.guards[LayerResource].breaker.State())
	}
}
