package main

import (
	"io"
	"net/http"
	"strconv"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/booking"
	"funabuse/internal/cluster"
	"funabuse/internal/core"
	"funabuse/internal/detect"
	"funabuse/internal/entitygraph"
	"funabuse/internal/fingerprint"
	"funabuse/internal/geo"
	"funabuse/internal/httpgate"
	"funabuse/internal/loadgen"
	"funabuse/internal/names"
	"funabuse/internal/obs"
	"funabuse/internal/signal"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
	"funabuse/internal/sms"
	"funabuse/internal/weblog"
)

// experimentIDs are the core.Experiments() ids, in sweep order; each has a
// core.<id>_ms and a core.<id>_kmallocs metric.
var experimentIDs = []string{"fig1", "table1", "caseA", "caseB", "caseC", "detection",
	"honeypot", "economics", "biometric", "ablations", "carrier", "pricing", "chaos"}

// perLayer is every metric of a single layer, measured from outside in the
// traced pass. A traced pass reports all of them; a metric of a layer the
// workload does not exercise reads 0 there.
var perLayer = func() []metricDef {
	lower := func(name, unit, doc string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Doc: doc}
	}
	higher := func(name, unit, doc string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "higher", Doc: doc}
	}
	defs := []metricDef{
		lower("loadgen.build_plan_ms", "ms", "loadgen.BuildPlan of the workload's scenario"),
		lower("loadgen.plan_arrivals", "count", "arrivals in the compiled plan"),
		lower("driver.self_ns_per_op", "ns", "the workload's driver against a no-op target: harness share of every number"),
		lower("driver.gen_late_p50_us", "us", "open loop: actual minus intended send, median"),
		lower("driver.gen_late_p99_us", "us", "open loop: actual minus intended send, p99"),
		lower("driver.lat_p999_us", "us", "operation latency p99.9 over the traced pass's untraced copy"),
		higher("driver.cpu_busy_share", "ratio", "process CPU / (wall x nproc) over the untraced copy: was the box saturated"),
		lower("socket.bare_us_per_req", "us", "same raw client, bare handler, no gate: the floor under lat_p50_us"),
		lower("socket.bare_mallocs_per_req", "count", "mallocs per request on the bare server"),
		lower("httpgate.client_ns", "ns", "Gate.Client on a request carrying all three identity headers"),
		lower("httpgate.decide_blocklist_ns", "ns", "Decide, rung 1: blocklist only"),
		lower("httpgate.decide_limiters_ns", "ns", "Decide, rung 2: + path, profile and resource limiters"),
		lower("httpgate.decide_entity_ns", "ns", "Decide, rung 3: + entity layer"),
		lower("httpgate.decide_account_ns", "ns", "Decide, rung 4: + account layer"),
		lower("httpgate.decide_resilient_ns", "ns", "Decide, rung 5: + per-layer breakers"),
		lower("httpgate.decide_telemetry_ns", "ns", "Decide, rung 6: + telemetry registry and trace ring"),
		lower("httpgate.decide_ns", "ns", "Decide on the workload's full stack, decision hooks included"),
		lower("httpgate.batch64_ns_per_decision", "ns", "DecideBatch in chunks of 64 on the full stack"),
		lower("httpgate.wrap_admit_ns", "ns", "Wrap(next).ServeHTTP, admitted, on an in-memory writer"),
		lower("httpgate.wrap_deny_ns", "ns", "Wrap(next).ServeHTTP, blocklisted: the http.Error path"),
		lower("httpgate.wrap_mallocs", "count", "mallocs per admitted Wrap(next).ServeHTTP"),
		lower("httpgate.deny_share", "ratio", "denied decisions / decisions in the workload's run"),
		lower("httpgate.inline_self_us", "us", "median self time of server.handle spans: gate.Wrap minus next"),
		lower("signal.limiter_allow_ns", "ns", "Limiter.AllowBytes over the workload's client keys"),
		lower("signal.limiter_batch_ns_per_key", "ns", "Limiter.AllowBatch, 64 keys per call"),
		lower("signal.limiter_sweep_us", "us", "Limiter.Sweep with every tracked key expired"),
		lower("signal.limiter_tracked_keys", "count", "keys the limiter tracked before that sweep"),
		lower("signal.engine_observe_ns", "ns", "Engine.ObserveAttr, the cluster's engine profile"),
		lower("signal.state_encode_us", "us", "State.Encode of a saturated engine"),
		lower("signal.state_decode_us", "us", "signal.DecodeState of those bytes"),
		lower("signal.state_merge_us", "us", "State.Merge of two decoded states"),
		lower("signal.state_bytes", "count", "encoded size of the state"),
		lower("mitigate.blocklist_probe_ns", "ns", "BlockList.BlockedBytes at the workload's rule count"),
		lower("mitigate.blocklist_rules", "count", "rules in the workload's blocklist"),
		lower("entitygraph.observe_ns", "ns", "Graph.Observe of known pairs, under budget"),
		lower("entitygraph.observe_evict_ns", "ns", "Graph.Observe of fresh pairs, budget saturated"),
		lower("entitygraph.flagged_ns", "ns", "Graph.FlaggedBytes on the workload's graph"),
		lower("entitygraph.evictions", "count", "nodes the workload's graph evicted"),
		lower("entitygraph.nodes", "count", "nodes the workload's graph holds"),
		lower("account.observe_ns", "ns", "Store.Observe of known keys"),
		lower("account.observe_evict_ns", "ns", "Store.Observe of fresh keys, budget saturated"),
		lower("account.tierof_ns", "ns", "Store.TierOf on the workload's store"),
		lower("account.evicted", "count", "accounts the workload's store evicted"),
		lower("account.len", "count", "accounts the workload's store holds"),
		lower("obs.scrape_ms", "ms", "Registry.WritePrometheus of the workload's registry"),
		lower("obs.series", "count", "samples in that scrape"),
		lower("obs.trace_record_ns", "ns", "TraceRing.Record"),
		lower("cluster.route_ns", "ns", "HashRouter.Route"),
		lower("cluster.decide_ns", "ns", "Cluster.Decide in-process"),
		lower("cluster.front_self_us", "us", "median self time of server.handle spans around Cluster.Handler()"),
		lower("cluster.gossip_round_ms", "ms", "one forced Cluster.Gossip at saturated state"),
		lower("cluster.gossip_rounds", "count", "rounds that ran during the traced copy"),
		lower("cluster.gossip_stall_share", "ratio", "rounds x round time / run time"),
		lower("cluster.front_stalls", "count", "server.handle spans longer than 1 ms"),
		lower("cluster.snapshot_encode_us", "us", "cluster.EncodeSnapshot of a node's snapshot"),
		lower("cluster.snapshot_decode_us", "us", "cluster.DecodeSnapshot of those bytes"),
		lower("cluster.snapshot_bytes", "count", "encoded size of the snapshot"),
		lower("cluster.fetch_failures", "count", "gossip fetch failures, all reasons"),
		lower("runner.sweep_s", "s", "one traced sweep of E1-E13, 2 replicates each"),
		higher("runner.parallel_efficiency", "ratio", "sum of replicate times / (workers x sweep wall)"),
	}
	for _, id := range experimentIDs {
		defs = append(defs, lower("core."+id+"_ms", "ms", "one run of "+id+" on its own"))
	}
	for _, id := range experimentIDs {
		defs = append(defs, lower("core."+id+"_kmallocs", "count", "thousand mallocs of that run"))
	}
	return append(defs,
		lower("booking.hold_expire_ns", "ns", "booking.System.RequestHold then expiry"),
		lower("sms.send_ns", "ns", "sms.Gateway.Send"),
		lower("weblog.sessionize_ms", "ms", "weblog.Sessionize of 20k requests"),
		lower("detect.feature_extract_us", "us", "weblog.Extract of one session"),
		lower("names.analyze_ms", "ms", "NamePatternDetector.Analyze of 1k records"),
		lower("fingerprint.generate_ns", "ns", "fingerprint.Generator.Organic"),
		lower("fingerprint.hash_ns", "ns", "Fingerprint.Hash"),
		lower("trace.overhead_share", "ratio", "(untraced - traced ops_per_s) / untraced on the shortened copy"),
	)
}()

const probeRepeats = 10

// timeOps runs fn, which performs n operations, probeRepeats times and
// returns the cost of one operation per repeat, in nanoseconds. prepare,
// when non-nil, runs untimed before every repeat.
func timeOps(n int, prepare, fn func()) []float64 {
	out := make([]float64, probeRepeats)
	for i := range out {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0)) / float64(n)
	}
	return out
}

func scale(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

// fillMissing completes a traced report: the contract promises every
// per-layer metric in every traced pass, and a layer the workload never
// touches reads 0.
func fillMissing(rep *report) {
	for _, d := range contractMetrics(true) {
		if _, ok := rep.Metrics[d.Name]; !ok {
			rep.setNote(d.Name, 0, notExercised)
		}
	}
}

// noopTarget decides nothing: driving it measures the driver alone.
type noopTarget struct{}

func (noopTarget) Decide(*http.Request, httpgate.ClientInfo) httpgate.Decision {
	return httpgate.Decision{}
}

func (noopTarget) DecideBatch(reqs []httpgate.Request, out []httpgate.Decision) []httpgate.Decision {
	return append(out[:0], make([]httpgate.Decision, len(reqs))...)
}

// probeKeys is how many arrivals of the workload's own stream a layer probe
// replays per repeat.
const probeKeys = 20000

// probeGateLayers measures every layer under a gate workload over the
// workload's own seeded key stream. g is a set-up, warmed run of that
// stream; its stack's counters are read as they stand.
func probeGateLayers(rep *report, g *gateRun, seed uint64) {
	n := min(probeKeys, len(g.in.reqs))
	short := g.prefix(n)
	st := g.st
	now := func() time.Time { return g.clock.Now() }

	// loadgen and the driver itself.
	sc := g.in.plan.Scenario
	rep.setRounds("loadgen.build_plan_ms", scale(timeOps(1, nil, func() {
		if _, err := loadgen.BuildPlan(sc); err != nil {
			rep.failf("BuildPlan: %v", err)
		}
	}), 1e-6))
	rep.set("loadgen.plan_arrivals", float64(len(g.in.plan.Arrivals)))
	rep.setRounds("driver.self_ns_per_op", timeOps(n, nil, func() { short.replayDecide(noopTarget{}, newVerdicts()) }))

	// The Decide ladder: every rung adds one layer to the rung before, over
	// the same blocklist, graph and account store the workload filled.
	base := httpgate.Config{Clock: g.clock, Blocks: st.blocks, TrustForwardedFor: true, RequireFingerprint: true}
	limiters := base
	limiters.PathLimit, limiters.PathWindow = st.cfg.PathLimit, st.cfg.PathWindow
	limiters.ProfileLimit, limiters.ProfileWindow = st.cfg.ProfileLimit, st.cfg.ProfileWindow
	limiters.ResourceLimit, limiters.ResourceWindow = st.cfg.ResourceLimit, st.cfg.ResourceWindow
	limiters.ResourceKey = func(r *http.Request) string { return r.URL.Query().Get("pnr") }
	entity := limiters
	entity.Entities = st.graph
	accounts := httpgate.WithAccounts(httpgate.AccountPolicy{
		Lookup: st.accounts, Restricted: st.cfg.AccountRestricted,
		BaseLimit: st.cfg.AccountBaseLimit, Window: st.cfg.AccountWindow,
	})
	resilient := httpgate.WithResilience(httpgate.ResilienceConfig{})
	rungs := []struct {
		metric string
		gate   decider
	}{
		{"httpgate.decide_blocklist_ns", httpgate.New(base)},
		{"httpgate.decide_limiters_ns", httpgate.New(limiters)},
		{"httpgate.decide_entity_ns", httpgate.New(entity)},
		{"httpgate.decide_account_ns", httpgate.New(entity, accounts)},
		{"httpgate.decide_resilient_ns", httpgate.New(entity, accounts, resilient)},
		{"httpgate.decide_telemetry_ns", httpgate.New(entity, accounts, resilient,
			httpgate.WithTelemetry(obs.NewRegistry()), httpgate.WithTraces(obs.NewTraceRing(4096)))},
		{"httpgate.decide_ns", st.gate},
	}
	for _, rung := range rungs {
		rep.setRounds(rung.metric, timeOps(n, nil, func() { short.replayDecide(rung.gate, newVerdicts()) }))
	}
	rep.setRounds("httpgate.batch64_ns_per_decision", timeOps(n, nil, func() { short.replayBatch(st.gate, newVerdicts()) }))

	// Wrap on an in-memory writer, on a copy of the stack whose limits never
	// trip, so the admitted request stays admitted however often it repeats.
	wcfg, wst := newGateConfig(g.clock, g.in.churn, limitsIdle)
	wst.gate, wst.blocks, _ = loadgen.NewTargetGate(wcfg)
	wst.seedDefender(seed, now(), false)
	handler := wst.gate.Wrap(okBackend)
	// The requests cycle through the stream's own clients: one request
	// repeated would keep every map lookup on one hot entry.
	var admit, deny []*http.Request
	for i, a := range short.in.plan.Arrivals {
		id := identityFor(seed, stableID(a.Class, a.Client))
		switch {
		case preBlocked(a.Class, a.Client) && len(deny) < 1024:
			deny = append(deny, headerRequest(arrivalTarget(a), id))
		case a.Class <= classMember && len(admit) < 1024:
			admit = append(admit, headerRequest(arrivalTarget(a), short.in.ids[i]))
		}
	}
	w := &memWriter{header: make(http.Header)}
	const wrapOps = 5000
	serve := func(reqs []*http.Request) func() {
		return func() {
			for i := range wrapOps {
				w.reset()
				handler.ServeHTTP(w, reqs[i%len(reqs)])
			}
		}
	}
	rep.setRounds("httpgate.wrap_admit_ns", timeOps(wrapOps, nil, serve(admit)))
	if w.status != http.StatusOK {
		rep.failf("wrap probe: admitted request answered %d", w.status)
	}
	m0 := mallocCount()
	serve(admit)()
	rep.set("httpgate.wrap_mallocs", float64(mallocCount()-m0)/wrapOps)
	rep.setRounds("httpgate.wrap_deny_ns", timeOps(wrapOps, nil, serve(deny)))
	if w.status != http.StatusForbidden {
		rep.failf("wrap probe: blocklisted request answered %d", w.status)
	}
	rep.setRounds("httpgate.client_ns", timeOps(wrapOps, nil, func() {
		for i := range wrapOps {
			_ = wst.gate.Client(admit[i%len(admit)])
		}
	}))

	// signal.Limiter at the profile layer's settings, over the client keys.
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte("pf:" + short.in.ids[i].Session)
	}
	newLimiter := func() *signal.Limiter {
		return signal.NewLimiter(signal.LimiterConfig{Window: st.cfg.ProfileWindow, Limit: st.cfg.ProfileLimit})
	}
	lim := newLimiter()
	at := now()
	rep.setRounds("signal.limiter_allow_ns", timeOps(n, func() { at = at.Add(time.Minute) }, func() {
		for _, k := range keys {
			lim.AllowBytes(k, at)
		}
	}))
	verdict := make([]bool, batchSize)
	rep.setRounds("signal.limiter_batch_ns_per_key", timeOps(n, func() { at = at.Add(time.Minute) }, func() {
		for lo := 0; lo < n; lo += batchSize {
			lim.AllowBatch(at, keys[lo:min(lo+batchSize, n)], verdict)
		}
	}))
	var sweepLim *signal.Limiter
	rep.setRounds("signal.limiter_sweep_us", scale(timeOps(1, func() {
		sweepLim = newLimiter()
		for _, k := range keys {
			sweepLim.AllowBytes(k, at)
		}
		rep.set("signal.limiter_tracked_keys", float64(sweepLim.TrackedKeys()))
	}, func() { sweepLim.Sweep(at.Add(time.Hour)) }), 1e-3))

	// mitigate.BlockList at the workload's rule count.
	fpKeys := make([][]byte, n)
	for i := range fpKeys {
		fpKeys[i] = []byte(fpRule(short.in.ids[i].FP))
	}
	rep.setRounds("mitigate.blocklist_probe_ns", timeOps(n, nil, func() {
		t := now()
		for _, k := range fpKeys {
			st.blocks.BlockedBytes(k, t)
		}
	}))
	rep.set("mitigate.blocklist_rules", float64(st.blocks.Len()))

	// entitygraph: hits under budget, inserts with the budget saturated,
	// and the read path on the workload's own graph.
	pairs := make([][]string, n)
	fresh := make([][]string, n)
	for i := range pairs {
		id := short.in.ids[i]
		pairs[i] = []string{entitygraph.FingerprintKey(id.FP), entitygraph.IPKey(id.IP)}
		f := identityFor(seed, freshID(1<<30+i))
		fresh[i] = []string{entitygraph.FingerprintKey(f.FP), entitygraph.IPKey(f.IP)}
	}
	observeAll := func(gr *entitygraph.Graph, obsv [][]string) func() {
		return func() {
			for _, p := range obsv {
				gr.Observe(p, 0.1)
			}
		}
	}
	known := entitygraph.New(entitygraph.Config{})
	observeAll(known, pairs)()
	rep.setRounds("entitygraph.observe_ns", timeOps(n, nil, observeAll(known, pairs)))
	var tight *entitygraph.Graph
	rep.setRounds("entitygraph.observe_evict_ns", timeOps(n, func() {
		tight = entitygraph.New(entitygraph.Config{MaxNodes: 4096})
		observeAll(tight, pairs[:2048])()
	}, func() { observeAll(tight, fresh)() }))
	rep.setRounds("entitygraph.flagged_ns", timeOps(n, nil, func() {
		for _, k := range fpKeys {
			st.graph.FlaggedBytes(k)
		}
	}))
	gs := st.graph.Stats()
	rep.set("entitygraph.evictions", float64(gs.Evicted))
	rep.set("entitygraph.nodes", float64(gs.Nodes))

	// account.Store likewise.
	sessions := make([]string, n)
	freshSessions := make([]string, n)
	for i := range sessions {
		sessions[i] = short.in.ids[i].Session
		freshSessions[i] = identityFor(seed, freshID(1<<30+i)).Session
	}
	observeKeys := func(s *account.Store, ks []string) func() {
		return func() {
			t := now()
			for _, k := range ks {
				s.Observe(k, t, false, false)
			}
		}
	}
	knownAccounts := account.NewStore(account.Config{})
	observeKeys(knownAccounts, sessions)()
	rep.setRounds("account.observe_ns", timeOps(n, nil, observeKeys(knownAccounts, sessions)))
	var tightAccounts *account.Store
	rep.setRounds("account.observe_evict_ns", timeOps(n, func() {
		tightAccounts = account.NewStore(account.Config{MaxAccounts: 4096})
		observeKeys(tightAccounts, sessions[:min(n, 4096)])()
	}, func() { observeKeys(tightAccounts, freshSessions)() }))
	rep.setRounds("account.tierof_ns", timeOps(n, nil, func() {
		for _, k := range sessions {
			st.accounts.TierOf(k)
		}
	}))
	rep.set("account.evicted", float64(st.accounts.Evicted()))
	rep.set("account.len", float64(st.accounts.Len()))

	// obs: a scrape of the workload's registry, and one trace-ring record.
	rep.setRounds("obs.scrape_ms", scale(timeOps(1, nil, func() {
		if err := st.registry.WritePrometheus(io.Discard); err != nil {
			rep.failf("WritePrometheus: %v", err)
		}
	}), 1e-6))
	rep.set("obs.series", float64(len(st.registry.Gather())))
	ring := obs.NewTraceRing(4096)
	sp := obs.Span{Start: now(), Dur: time.Microsecond, Path: loadgen.PathSearch, Verdict: "admit"}
	rep.setRounds("obs.trace_record_ns", timeOps(n, nil, func() {
		for range n {
			ring.Record(sp)
		}
	}))
}

// headerRequest builds the request a socket would deliver for id: the three
// identity headers set, as Gate.Client expects them.
func headerRequest(path string, id identity) *http.Request {
	r, err := http.NewRequest(http.MethodGet, "http://bench"+path, nil)
	if err != nil {
		panic(err) // constant, well-formed URL
	}
	r.Header.Set(httpgate.FingerprintHeader, strconv.FormatUint(id.FP, 16))
	r.Header.Set("X-Forwarded-For", id.IP)
	r.Header.Set("Cookie", httpgate.ClientCookie+"="+id.Session)
	r.RemoteAddr = "127.0.0.1:40000"
	return r
}

// memWriter is the benchmark's reusable in-memory http.ResponseWriter.
type memWriter struct {
	header http.Header
	status int
	bytes  int
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *memWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.bytes += len(b)
	return len(b), nil
}
func (w *memWriter) reset() {
	clear(w.header)
	w.status, w.bytes = 0, 0
}

// newFleetEngine returns an engine with the profile cluster nodes use, so
// the state probes ship what a node would.
func newFleetEngine(start time.Time) *signal.Engine {
	return signal.NewEngine(signal.EngineConfig{
		Shards: 4, Window: fleetWindow, TopK: 32, SketchWidth: 512, SketchDepth: 4,
		DistinctPrecision: 8, SurgeStart: start, SurgePeriod: fleetWindow,
	})
}

// probeFleetLayers measures signal's engine and state codec and the cluster
// layer, over the fleet workload's fingerprints. f is a set-up fleet whose
// traced copy has already run.
func probeFleetLayers(rep *report, f *fleetRun) {
	n := len(f.direct)
	start := f.clock.Now()
	keys := make([]string, n)
	for i, rq := range f.direct {
		keys[i] = "fp:" + strconv.FormatUint(rq.Info.Fingerprint, 16)
	}
	eng := newFleetEngine(start)
	at := start
	feed := func(e *signal.Engine) {
		for i, k := range keys {
			e.ObserveAttr(k, f.direct[i].Info.IP, at)
		}
	}
	rep.setRounds("signal.engine_observe_ns", timeOps(n, func() { at = at.Add(100 * time.Millisecond) }, func() { feed(eng) }))
	var wire []byte
	var state *signal.State
	rep.setRounds("signal.state_encode_us", scale(timeOps(1, func() { state = eng.State() }, func() { wire = state.Encode() }), 1e-3))
	rep.set("signal.state_bytes", float64(len(wire)))
	var a, b *signal.State
	decode := func() *signal.State {
		s, err := signal.DecodeState(wire)
		if err != nil {
			rep.failf("DecodeState: %v", err)
		}
		return s
	}
	rep.setRounds("signal.state_decode_us", scale(timeOps(1, nil, func() { a = decode() }), 1e-3))
	rep.setRounds("signal.state_merge_us", scale(timeOps(1, func() { a, b = decode(), decode() }, func() {
		if a != nil && b != nil && !a.Merge(b) {
			rep.failf("State.Merge refused two states of one engine")
		}
	}), 1e-3))

	router := cluster.HashRouter{}
	rep.setRounds("cluster.route_ns", timeOps(n, nil, func() {
		for _, rq := range f.direct {
			router.Route(cluster.RouteInfo{Fingerprint: rq.Info.Fingerprint, HasFingerprint: true, IP: rq.Info.IP}, fleetNodes)
		}
	}))
	rep.setRounds("cluster.decide_ns", timeOps(n, nil, func() {
		for _, rq := range f.direct {
			f.cluster.Decide(rq.R, rq.Info)
		}
	}))
	rep.setRounds("cluster.gossip_round_ms", scale(timeOps(1, nil, func() { f.cluster.Gossip(f.clock.Now()) }), 1e-6))

	snap := cluster.Snapshot{Node: 0, State: wire}
	for i := range 64 {
		snap.Rules = append(snap.Rules, cluster.Rule{Origin: 0, Seq: uint64(i + 1), Key: keys[i%n], At: start})
	}
	var enc []byte
	rep.setRounds("cluster.snapshot_encode_us", scale(timeOps(1, nil, func() { enc = cluster.EncodeSnapshot(snap) }), 1e-3))
	rep.set("cluster.snapshot_bytes", float64(len(enc)))
	rep.setRounds("cluster.snapshot_decode_us", scale(timeOps(1, nil, func() {
		if _, err := cluster.DecodeSnapshot(enc); err != nil {
			rep.failf("DecodeSnapshot: %v", err)
		}
	}), 1e-3))
	rep.set("cluster.fetch_failures", float64(f.cluster.Stats().FetchFailures))
}

// probeCore runs every experiment once on its own and reports its time and
// mallocs, then the substrates under them.
func probeCore(rep *report, seed uint64) {
	for _, e := range core.Experiments() {
		var reg region
		reg.begin()
		if _, err := e.Run(max(seed, 1)); err != nil {
			rep.failf("%s: %v", e.ID, err)
		}
		reg.end()
		rep.set("core."+e.ID+"_ms", float64(reg.wall)/1e6)
		rep.set("core."+e.ID+"_kmallocs", float64(reg.mallocs)/1e3)
	}

	const ops = 2000
	clock := simclock.NewManual(core.SimStart)
	sys := booking.NewSystem(clock, simrand.New(seed), booking.DefaultConfig())
	sys.AddFlight(booking.Flight{ID: "F", Capacity: 1 << 30, Departure: core.SimStart.AddDate(1000, 0, 0)})
	gen := names.NewGenerator(simrand.New(seed + 1))
	party := []names.Identity{gen.Realistic()}
	rep.setRounds("booking.hold_expire_ns", timeOps(ops, nil, func() {
		for range ops {
			if _, err := sys.RequestHold(booking.HoldRequest{Flight: "F", Passengers: party}); err != nil {
				rep.failf("RequestHold: %v", err)
				return
			}
			clock.Advance(31 * time.Minute)
		}
	}))
	gw := sms.NewGateway(simclock.NewManual(core.SimStart), geo.Default())
	to := geo.PlanFor(geo.Default().MustLookup("UZ")).Random(simrand.New(seed))
	rep.setRounds("sms.send_ns", timeOps(ops, nil, func() {
		for range ops {
			if _, err := gw.Send(to, sms.KindBoardingPass, "LOC", "actor"); err != nil {
				rep.failf("Send: %v", err)
				return
			}
		}
	}))
	requests := synthRequests(seed, 20000)
	var sessions []*weblog.Session
	rep.setRounds("weblog.sessionize_ms", scale(timeOps(1, nil, func() {
		sessions = weblog.Sessionize(requests, weblog.DefaultSessionGap)
	}), 1e-6))
	rep.setRounds("detect.feature_extract_us", scale(timeOps(len(sessions), nil, func() {
		for _, s := range sessions {
			_ = weblog.Extract(s)
		}
	}), 1e-3))
	records := synthRecords(seed, 1000)
	det := detect.NewNamePatternDetector(detect.NamePatternConfig{})
	rep.setRounds("names.analyze_ms", scale(timeOps(1, nil, func() { _ = det.Analyze(records) }), 1e-6))
	fpGen := fingerprint.NewGenerator(simrand.New(seed))
	rep.setRounds("fingerprint.generate_ns", timeOps(ops, nil, func() {
		for range ops {
			_ = fpGen.Organic()
		}
	}))
	fp := fpGen.Organic()
	rep.setRounds("fingerprint.hash_ns", timeOps(ops, nil, func() {
		for range ops {
			_ = fp.Hash()
		}
	}))
}

// synthRequests is a seeded web log for the sessionizer probe.
func synthRequests(seed uint64, n int) []weblog.Request {
	rng := simrand.New(seed + 3)
	out := make([]weblog.Request, 0, n)
	at := core.SimStart
	for i := range n {
		at = at.Add(time.Duration(rng.Intn(20)) * time.Second)
		out = append(out, weblog.Request{
			Time: at, IP: "10.0.0.1", Fingerprint: uint64(i % 97), Cookie: "c" + string(rune('a'+i%23)),
			Method: "GET", Path: "/search", Status: 200, Actor: weblog.ActorHuman,
		})
	}
	return out
}

// synthRecords is a seeded booking journal for the name-pattern probe.
func synthRecords(seed uint64, n int) []booking.Record {
	gen := names.NewGenerator(simrand.New(seed + 4))
	rng := simrand.New(seed + 5)
	out := make([]booking.Record, 0, n)
	for i := range n {
		nip := 1 + rng.Intn(4)
		ps := make([]names.Identity, nip)
		for j := range ps {
			ps[j] = gen.Realistic()
		}
		out = append(out, booking.Record{
			HoldID: booking.HoldID(i + 1), NiP: nip, Outcome: booking.OutcomeAccepted, Passengers: ps,
		})
	}
	return out
}
