package main

import (
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/loadgen"
	"funabuse/internal/simclock"
)

const (
	batchSize = 64
	minRounds = 10
	// Virtual plan lengths, fixed once: about 13k arrivals for the hit
	// workload and 6.6k for the churn workload, whose decisions cost several
	// times more. Either way one replay lasts 25 to 40 ms, short enough that
	// some replays of a run fall between a neighbour's bursts (see best),
	// and a run holds a hundred rounds or more.
	directPlanDur = 10 * time.Second
	churnPlanDur  = 5 * time.Second
)

// verdicts is the outcome histogram of one replay.
type verdicts struct {
	Admitted        int            `json:"admitted"`
	Denied          map[string]int `json:"denied"`
	admittedByClass [numGateClasses]int
}

func newVerdicts() *verdicts { return &verdicts{Denied: make(map[string]int)} }

func (v *verdicts) tally(class int, d httpgate.Decision) {
	if d.Reason == "" {
		v.Admitted++
		v.admittedByClass[class]++
		return
	}
	v.Denied[d.Reason]++
}

// distance is how many decisions separate two histograms: half the summed
// absolute difference, so one verdict that flipped counts once.
func (v *verdicts) distance(o *verdicts) int {
	diff := abs(v.Admitted - o.Admitted)
	for reason, n := range v.Denied {
		diff += abs(n - o.Denied[reason])
	}
	for reason, n := range o.Denied {
		if _, ok := v.Denied[reason]; !ok {
			diff += n
		}
	}
	return (diff + 1) / 2
}

func (v *verdicts) String() string {
	reasons := make([]string, 0, len(v.Denied))
	for reason := range v.Denied {
		reasons = append(reasons, reason)
	}
	slices.Sort(reasons)
	s := fmt.Sprintf("admitted=%d", v.Admitted)
	for _, reason := range reasons {
		s += fmt.Sprintf(" %s=%d", reason, v.Denied[reason])
	}
	return s
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// decider is the decision surface a replay drives: the gate, or a no-op
// when the harness measures itself.
type decider interface {
	Decide(r *http.Request, info httpgate.ClientInfo) httpgate.Decision
	DecideBatch(reqs []httpgate.Request, out []httpgate.Decision) []httpgate.Decision
}

// gateRun is one set-up gate workload: inputs, the stack under test and the
// virtual clock the replays drive.
type gateRun struct {
	in      *gateInputs
	st      *gateStack
	clock   *simclock.Manual
	replays int
	out     []httpgate.Decision
	rec     *recorder // nil unless this replay is traced
}

// setupGate builds the plan, the decision inputs and the defence stack, and
// replays the plan twice untimed so that limiter maps, the entity graph,
// the account store, pools and the step table's caches are in the state
// every measured replay starts from.
func setupGate(seed uint64, dur time.Duration, churn bool) (*gateRun, error) {
	in, err := buildGateInputs(seed, dur, churn)
	if err != nil {
		return nil, err
	}
	clock := simclock.NewManual(planStart)
	cfg, st := newGateConfig(clock, churn, limitsBite)
	st.gate, st.blocks, _ = loadgen.NewTargetGate(cfg)
	st.seedDefender(seed, planStart, false)
	g := &gateRun{in: in, st: st, clock: clock, out: make([]httpgate.Decision, 0, batchSize)}
	g.replayDecide(g.st.gate, newVerdicts())
	g.replayBatch(g.st.gate, newVerdicts())
	return g, nil
}

// gatePlanDur is the virtual length of the workload's plan.
func gatePlanDur(churn bool) time.Duration {
	if churn {
		return churnPlanDur
	}
	return directPlanDur
}

// prefix returns a run over the first n arrivals only, on the same stack and
// clock. The layer probes replay it; the receiver must not be replayed
// afterwards, or the shared clock would run backwards for one of the two.
func (g *gateRun) prefix(n int) *gateRun {
	in := *g.in
	plan := *g.in.plan
	plan.Arrivals = plan.Arrivals[:n]
	in.plan, in.reqs, in.ids = &plan, in.reqs[:n], in.ids[:n]
	short := *g
	short.in = &in
	return &short
}

// nextBase starts a replay: it returns the replay's time origin, one whole
// period after the previous replay's.
func (g *gateRun) nextBase() time.Time {
	base := planStart.Add(time.Duration(g.replays) * g.in.period)
	g.replays++
	return base
}

// at is arrival i's instant within a replay starting at base.
func (g *gateRun) at(base time.Time, i int) time.Time {
	return base.Add(g.in.plan.Arrivals[i].At.Sub(planStart))
}

// replayDecide drives the whole plan through Decide, one call per arrival,
// moving the virtual clock once per chunk exactly as the batch replay does
// so both see the same instants.
func (g *gateRun) replayDecide(target decider, v *verdicts) {
	base := g.nextBase()
	arrivals := g.in.plan.Arrivals
	for lo := 0; lo < len(arrivals); lo += batchSize {
		hi := min(lo+batchSize, len(arrivals))
		g.clock.SetAt(g.at(base, lo))
		for i := lo; i < hi; i++ {
			rq := &g.in.reqs[i]
			v.tally(arrivals[i].Class, target.Decide(rq.R, rq.Info))
		}
	}
}

// replayBatch drives the plan through DecideBatch in chunks of 64.
func (g *gateRun) replayBatch(target decider, v *verdicts) {
	base := g.nextBase()
	arrivals := g.in.plan.Arrivals
	for lo := 0; lo < len(arrivals); lo += batchSize {
		hi := min(lo+batchSize, len(arrivals))
		g.clock.SetAt(g.at(base, lo))
		g.out = target.DecideBatch(g.in.reqs[lo:hi], g.out)
		for i, d := range g.out {
			v.tally(arrivals[lo+i].Class, d)
		}
	}
}

// replayTimed is replayDecide with every call timed on its own; lat
// receives one reading in microseconds per arrival. With a recorder
// attached it also records the spans of the traced pass.
func (g *gateRun) replayTimed(target decider, v *verdicts, lat []float64) {
	base := g.nextBase()
	arrivals := g.in.plan.Arrivals
	replaySpan := g.rec.begin(spanReplay, 0, 0)
	for lo := 0; lo < len(arrivals); lo += batchSize {
		hi := min(lo+batchSize, len(arrivals))
		g.clock.SetAt(g.at(base, lo))
		for i := lo; i < hi; i++ {
			rq := &g.in.reqs[i]
			t0 := time.Now()
			d := target.Decide(rq.R, rq.Info)
			t1 := time.Now()
			lat[i] = float64(t1.Sub(t0)) / 1e3
			g.rec.add(spanDecide, replaySpan, uint64(i), t0, t1)
			v.tally(arrivals[i].Class, d)
		}
	}
	g.rec.end(replaySpan)
}

// roundSamples collects the per-round readings of a closed-loop workload's
// timing metrics. Throughput and CPU are reported from the throughput pass
// that ran fastest, the latency percentiles from the latency pass that ran
// fastest (see bestIndex): each a reading of one coherent, undisturbed
// round, not the best of each figure from different rounds.
type roundSamples struct {
	opsPS, cpuUS      []float64 // per throughput pass
	latWall, p50, p99 []float64 // per latency pass
	mallocs           uint64
	ops               int
}

// addPass records one throughput pass of ops operations measured by reg.
func (rs *roundSamples) addPass(ops int, reg region) {
	rs.opsPS = append(rs.opsPS, float64(ops)/reg.wall.Seconds())
	rs.cpuUS = append(rs.cpuUS, reg.cpu*1e6/float64(ops))
	rs.mallocs += reg.mallocs
	rs.ops += ops
}

// addLatency records one latency pass that took wall: its per-operation
// latencies in microseconds (sorted here).
func (rs *roundSamples) addLatency(wall time.Duration, lat []float64) {
	slices.Sort(lat)
	rs.latWall = append(rs.latWall, wall.Seconds())
	rs.p50 = append(rs.p50, percentile(lat, 50))
	rs.p99 = append(rs.p99, percentile(lat, 99))
}

func (rs *roundSamples) report(rep *report) {
	fastest := bestIndex(rs.opsPS, true)
	rep.setPicked("ops_per_s", rs.opsPS, fastest)
	rep.setPicked("cpu_us_per_op", rs.cpuUS, fastest)
	rep.set("mallocs_per_op", float64(rs.mallocs)/float64(rs.ops))
	fastest = bestIndex(rs.latWall, false)
	rep.setPicked("lat_p50_us", rs.p50, fastest)
	rep.setPicked("lat_p99_us", rs.p99, fastest)
}

// measureGate is the untraced pass of gate_direct and gate_churn. A round is
// three replays of the plan: through Decide (throughput, CPU, mallocs),
// through DecideBatch, and through Decide with every call timed (latency).
func measureGate(name string, churn bool, seed uint64, seconds float64, gold *golden) (*report, error) {
	rep := newReport(name, seed, false)
	var g *gateRun
	setups, err := repeatSetup(func() (err error) {
		g, err = setupGate(seed, gatePlanDur(churn), churn)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	rep.setBestOf("setup_s", setups)

	n := len(g.in.reqs)
	lat := make([]float64, n)
	var samples roundSamples
	var batchPS []float64
	var ref *verdicts
	check := func(kind string, round int, v *verdicts) {
		rep.Attempted += n
		if ref == nil {
			ref = v
			return
		}
		if d := v.distance(ref); d > 0 {
			rep.Failed += d
			rep.failf("round %d %s: verdicts %s differ from the first replay's %s", round, kind, v, ref)
		}
	}
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start).Seconds() < seconds; round++ {
		var reg region
		v := newVerdicts()
		reg.begin()
		g.replayDecide(g.st.gate, v)
		reg.end()
		check("Decide", round, v)

		v = newVerdicts()
		t0 := time.Now()
		g.replayBatch(g.st.gate, v)
		batchPS = append(batchPS, float64(n)/time.Since(t0).Seconds())
		check("DecideBatch", round, v)

		v = newVerdicts()
		t0 = time.Now()
		g.replayTimed(g.st.gate, v, lat)
		timedWall := time.Since(t0)
		check("timed Decide", round, v)
		samples.addPass(n, reg)
		samples.addLatency(timedWall, lat)
	}
	samples.report(rep)
	rep.setBestOf("batch_ops_per_s", batchPS)
	rep.set("live_heap_mb", liveHeapMiB())

	g.checkShares(rep, ref)
	gold.checkGate(rep, name, g.in.plan.Hash(), ref)
	runtime.KeepAlive(g)
	rep.finish()
	return rep, nil
}

// checkShares holds the defence to what it is for: honest clients get in,
// abusive ones mostly do not. Under churn the identity-keyed layers see
// every arrival as new, so only the reference- and tier-keyed layers bite
// and the leak limit is the looser one.
func (g *gateRun) checkShares(rep *report, v *verdicts) {
	var total [numGateClasses]int
	for _, a := range g.in.plan.Arrivals {
		total[a.Class]++
	}
	var honest, honestIn, abusive, abusiveIn int
	for class, n := range total {
		switch {
		case class == classGuest: // denied by design: the path is tier-gated
		case class == classMember && g.in.churn: // likewise: a fresh session has no history
		case class == classSpin || class == classPump:
			abusive += n
			abusiveIn += v.admittedByClass[class]
		default:
			honest += n
			honestIn += v.admittedByClass[class]
		}
	}
	leakLimit := 0.25
	if g.in.churn {
		leakLimit = 0.80
	}
	if share := float64(honestIn) / float64(honest); share < 0.98 {
		rep.failf("honest admit share %.4f below 0.98", share)
	}
	if share := float64(abusiveIn) / float64(abusive); share > leakLimit {
		rep.failf("abusive leak share %.4f above %.2f", share, leakLimit)
	}
}
