package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"funabuse/internal/cluster"
	"funabuse/internal/httpgate"
	"funabuse/internal/loadgen"
)

const (
	fleetNodes  = 4
	fleetGossip = 500 * time.Millisecond
	// fleetWindow is the node engines' sliding window. Every fingerprint
	// recurs about twice a second, so no key ever idles out of it and the
	// sketch state stays at its saturated size.
	fleetWindow = 10 * time.Second
	// The open loop offers exactly 4 000 requests per second, about 3 400
	// honest and 600 from low-and-slow bots holding fixed identities. The
	// plan is compiled at a tenth more than that and cut to its first 4 000
	// arrivals, stretched to fill the second: a Poisson count would make
	// the offered rate, and every per-request cost that gossip dilutes into,
	// differ from seed to seed.
	fleetPerRound    = 4000
	fleetHonestRate  = 3740
	fleetLowSlowRate = 660
	fleetRound       = time.Second
)

const (
	fleetHonest = iota
	fleetLowSlow
)

// fleetScenario is one second of the open loop's schedule; the run replays
// it round after round. About 2k fingerprints recur in it.
func fleetScenario(seed uint64) loadgen.Scenario {
	return loadgen.Scenario{
		Seed:  seed,
		Start: planStart,
		Classes: []loadgen.Class{
			fleetHonest: {Name: "honest", Kind: loadgen.Honest, Clients: 1800,
				Paths:  []string{loadgen.PathSearch, loadgen.PathHold, loadgen.PathSMS},
				Phases: []loadgen.Phase{{Dur: fleetRound, Rate: fleetHonestRate}}},
			fleetLowSlow: {Name: "lowslow", Kind: loadgen.LowAndSlow, Clients: 200,
				Paths:  []string{loadgen.PathHold, loadgen.PathSMS},
				Phases: []loadgen.Phase{{Dur: fleetRound, Rate: fleetLowSlowRate}}},
		},
	}
}

// fleetBlocked reports whether every node already holds a rule for this
// client: every second low-and-slow bot. The unblocked half keeps feeding
// the node engines, the blocked half takes the deny path.
func fleetBlocked(a loadgen.Arrival) bool { return a.Class == fleetLowSlow && a.Client%2 == 0 }

// skewClock is the wall clock plus an offset the warm-up moves forward, so
// that ten seconds of traffic can fill the engines' windows in a fraction
// of a second and the run then continues in real time.
type skewClock struct{ offset atomic.Int64 }

func (c *skewClock) Now() time.Time { return time.Now().Add(time.Duration(c.offset.Load())) }

// spanTransport records a span around every Publish and Fetch of the
// transport it wraps, with the payload's size.
type spanTransport struct {
	inner cluster.Transport
	rec   *recorder
}

func snapshotBytes(s cluster.Snapshot) int { return len(s.State) + 32*len(s.Rules) }

func (t spanTransport) Publish(s cluster.Snapshot) {
	t0 := time.Now()
	t.inner.Publish(s)
	t.rec.addBytes(spanPublish, 0, uint64(s.Node), t0, time.Now(), snapshotBytes(s))
}

func (t spanTransport) Fetch(node int) (cluster.Snapshot, bool) {
	t0 := time.Now()
	s, ok := t.inner.Fetch(node)
	t.rec.addBytes(spanFetch, 0, uint64(node), t0, time.Now(), snapshotBytes(s))
	return s, ok
}

// fleetRun is one set-up open-loop workload.
type fleetRun struct {
	planHash uint64                     // of the compiled plan, before the cut
	arrivals []loadgen.Arrival          // one round: exactly fleetPerRound arrivals over fleetRound
	reqs     [loadConns][]wireRequest   // one round's requests per connection
	offsets  [loadConns][]time.Duration // their intended starts within the round
	direct   []httpgate.Request         // the same round as in-process decision inputs
	cluster  *cluster.Cluster
	clock    *skewClock
	addr     string
	closeFn  func()
	conns    [loadConns]*loadConn
}

func setupFleet(seed uint64, rec *recorder) (*fleetRun, error) {
	plan, err := loadgen.BuildPlan(fleetScenario(seed))
	if err != nil {
		return nil, err
	}
	if len(plan.Arrivals) <= fleetPerRound {
		return nil, fmt.Errorf("plan holds %d arrivals, the round needs more than %d", len(plan.Arrivals), fleetPerRound)
	}
	f := &fleetRun{planHash: plan.Hash(), arrivals: plan.Arrivals[:fleetPerRound], clock: new(skewClock)}
	stretch := float64(fleetRound) / float64(plan.Arrivals[fleetPerRound].At.Sub(planStart))
	for i := range f.arrivals {
		f.arrivals[i].At = planStart.Add(time.Duration(float64(f.arrivals[i].At.Sub(planStart)) * stretch))
	}
	shared := make(requestCache)
	for i, a := range f.arrivals {
		id := identityFor(seed, stableID(a.Class, a.Client))
		c := i % loadConns
		wr := wireRequest{status: http.StatusOK}
		if fleetBlocked(a) {
			wr.status, wr.reason = http.StatusForbidden, httpgate.ReasonBlocklist
		}
		wr.bytes = rawRequest(a.Path, id, uint64(c)<<32|uint64(len(f.reqs[c])), rec != nil)
		f.reqs[c] = append(f.reqs[c], wr)
		f.offsets[c] = append(f.offsets[c], a.At.Sub(planStart))
		r, err := shared.get(a.Path)
		if err != nil {
			return nil, err
		}
		f.direct = append(f.direct, httpgate.Request{R: r, Info: id.clientInfo()})
	}

	cfg := cluster.Config{
		Nodes:          fleetNodes,
		Clock:          f.clock,
		Router:         cluster.HashRouter{},
		Gossip:         fleetGossip,
		ReplicateRules: true,
		ReplicateState: true,
		RuleWindow:     fleetWindow,
	}
	if rec == nil {
		fl, err := cluster.Start(cfg)
		if err != nil {
			return nil, err
		}
		f.cluster = fl.Cluster
		f.addr = strings.TrimPrefix(fl.URL, "http://")
		f.closeFn = func() { _ = fl.Close() }
	} else {
		// The same fleet assembled by hand, so the span wrappers can sit
		// around the front handler and the gossip transport.
		cfg.Transport = spanTransport{inner: cluster.NewInProc(), rec: rec}
		f.cluster = cluster.New(cfg)
		if f.addr, f.closeFn, err = serveOn(traceHandler(rec, spanHandle, f.cluster.Handler())); err != nil {
			return nil, err
		}
	}
	now := f.clock.Now()
	for i, a := range f.arrivals {
		if fleetBlocked(a) {
			for n := range fleetNodes {
				f.cluster.NodeBlocks(n).Block(fpRule(f.direct[i].Info.Fingerprint), now)
			}
		}
	}
	f.warmInProcess()
	for c := range f.conns {
		if f.conns[c], err = dialLoad(f.addr); err != nil {
			f.close()
			return nil, err
		}
		for i := range min(200, len(f.reqs[c])) {
			if _, err := f.conns[c].roundTrip(f.reqs[c][i].bytes); err != nil {
				f.close()
				return nil, fmt.Errorf("warm-up request: %w", err)
			}
		}
	}
	return f, nil
}

// warmInProcess replays one engine window of traffic through Cluster.Decide
// with the clock skipping ahead by each arrival's gap, gossip rounds
// included, so the sketches the measured run ships are saturated.
func (f *fleetRun) warmInProcess() {
	for range int(fleetWindow / fleetRound) {
		prev := planStart
		for i, a := range f.arrivals {
			f.clock.offset.Add(int64(a.At.Sub(prev)))
			prev = a.At
			f.cluster.Decide(f.direct[i].R, f.direct[i].Info)
		}
		f.clock.offset.Add(int64(planStart.Add(fleetRound).Sub(prev)))
	}
}

func (f *fleetRun) close() {
	for _, c := range f.conns {
		if c != nil {
			c.close()
		}
	}
	f.closeFn()
}

// openResult is what one open-loop run measured.
type openResult struct {
	rounds    int
	perRound  int
	lat       [][]float64 // per round: intended-start latencies in µs, sorted
	missed    []int       // per round: requests over the limit or failed
	delivered []float64   // per round: answers per second
	late      []float64   // generator lateness (actual minus intended send) in µs, sorted
	cpuUS     []float64   // per round: process CPU in µs per request due
	failed    int
	answers   *verdicts
	wall      time.Duration
	reg       region
}

// runOpen drives the schedule for the given number of rounds. Each
// connection has a paced writer and a reader: the writer never waits for an
// answer, so a stalled server cannot slow the schedule down, and every
// request's latency counts from the instant it was due. This sandbox's
// timers are about a millisecond coarse, so at each wake the writer fires
// every arrival that has come due, in one write.
func (f *fleetRun) runOpen(rounds int, rec *recorder) *openResult {
	res := &openResult{rounds: rounds, perRound: len(f.arrivals), answers: newVerdicts()}
	type connLog struct {
		lat, late []float64 // µs; lat < 0 marks a failed request
		recv      []time.Duration
		tally     *verdicts
	}
	var logs [loadConns]connLog
	var wg sync.WaitGroup
	res.reg.begin()
	start := time.Now()
	res.cpuUS = make([]float64, rounds)
	wg.Add(1)
	go func() { // reads the process's CPU clock at every round boundary
		defer wg.Done()
		prev := cpuSeconds()
		for k := range res.cpuUS {
			time.Sleep(time.Duration(k+1)*fleetRound - time.Since(start))
			now := cpuSeconds()
			res.cpuUS[k] = (now - prev) * 1e6 / float64(res.perRound)
			prev = now
		}
	}()
	for c := range f.conns {
		per := len(f.reqs[c])
		n := per * rounds
		due := func(i int) time.Duration {
			return time.Duration(i/per)*fleetRound + f.offsets[c][i%per]
		}
		lg := &logs[c]
		lg.lat, lg.late, lg.recv = make([]float64, n), make([]float64, n), make([]time.Duration, n)
		lg.tally = newVerdicts()
		for i := range lg.lat {
			lg.lat[i] = -1
		}
		// The writer publishes each send instant to the reader; the socket
		// orders the two in practice, the atomic makes it so for the runtime.
		sent := make([]atomic.Int64, n)
		conn := f.conns[c]
		wg.Add(2)
		go func() { // writer
			defer wg.Done()
			var buf []byte
			for i := 0; i < n; {
				now := time.Since(start)
				if wait := due(i) - now; wait > 0 {
					time.Sleep(wait)
					now = time.Since(start)
				}
				buf = buf[:0]
				j := i
				for ; j < n && due(j) <= now; j++ {
					buf = append(buf, f.reqs[c][j%per].bytes...)
				}
				t := time.Now()
				if _, err := conn.c.Write(buf); err != nil {
					return // the reader sees the broken connection and fails the rest
				}
				for ; i < j; i++ {
					sent[i].Store(int64(t.Sub(start)))
				}
			}
		}()
		go func() { // reader
			defer wg.Done()
			for i := range n {
				resp, err := readResponse(conn.br)
				if err != nil {
					return
				}
				t := time.Now()
				lg.recv[i] = t.Sub(start)
				want := &f.reqs[c][i%per]
				if resp.Status == want.status && resp.DeniedBy == want.reason {
					lg.lat[i] = float64(lg.recv[i]-due(i)) / 1e3
				}
				lg.tally.tally(0, httpgate.Decision{Reason: resp.DeniedBy, Status: resp.Status})
				sentAt := time.Duration(sent[i].Load())
				lg.late[i] = float64(sentAt-due(i)) / 1e3
				rec.add(spanRequest, 0, uint64(c)<<32|uint64(i%per), start.Add(sentAt), t)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.reg.end()

	res.lat = make([][]float64, rounds)
	res.missed = make([]int, rounds)
	res.delivered = make([]float64, rounds)
	lastRecv := make([]time.Duration, rounds)
	for c := range logs {
		per := len(f.reqs[c])
		res.late = append(res.late, logs[c].late...)
		res.answers.Admitted += logs[c].tally.Admitted
		for reason, n := range logs[c].tally.Denied {
			res.answers.Denied[reason] += n
		}
		for i, l := range logs[c].lat {
			k := i / per
			if l < 0 {
				res.failed++
				res.missed[k]++
				continue
			}
			res.lat[k] = append(res.lat[k], l)
			if l > sloLimitUS {
				res.missed[k]++
			}
			lastRecv[k] = max(lastRecv[k], logs[c].recv[i])
		}
	}
	slices.Sort(res.late)
	for k := range rounds {
		slices.Sort(res.lat[k])
		// A round that drains on time has its last answer about when its
		// second ends; a backlog stretches the denominator.
		if span := lastRecv[k] - time.Duration(k)*fleetRound; span > 0 {
			res.delivered[k] = float64(len(res.lat[k])) / span.Seconds()
		}
	}
	return res
}

// perRoundPercentile returns percentile p of every round's latencies.
func (r *openResult) perRoundPercentile(p float64) []float64 {
	out := make([]float64, r.rounds)
	for k := range out {
		out[k] = percentile(r.lat[k], p)
	}
	return out
}

func (r *openResult) missShares() []float64 {
	out := make([]float64, r.rounds)
	for k := range out {
		out[k] = float64(r.missed[k]) / float64(r.perRound)
	}
	return out
}

// checkGenerator warns when the generator, not the fleet, was the
// bottleneck: a request sent more than the latency limit late would miss
// the limit whatever the server did. It is a warning and not a failed
// check: lateness is a property of the box during this run (the generator
// shares two cores and one Go scheduler with the front, and the host shares
// those cores with its neighbours), not a wrong output of the program, and a
// benchmark that exits non-zero on a busy host cannot gate anything. The
// check reads the 95th percentile of the lateness, not the 99th that
// driver.gen_late_p99_us reports: the front spends 3-4% of the run inside
// gossip rounds, and the sends that fall due in a round go out late — which
// costs them nothing, since the front could not have served them before the
// round ended anyway.
func (r *openResult) checkGenerator(rep *report) {
	if late := percentile(r.late, 95); late > sloLimitUS {
		rep.warnf("generator ran late: p95 of actual minus intended send is %.0f us, over the %d us limit; "+
			"the latency figures of this run include the generator's own delay", late, sloLimitUS)
	}
}

// measureFleet is the untraced pass of fleet_gossip.
func measureFleet(seed uint64, seconds float64, gold *golden) (*report, error) {
	rep := newReport("fleet_gossip", seed, false)
	var f *fleetRun
	setups, err := repeatSetup(func() (err error) {
		f, err = setupFleet(seed, nil)
		return err
	}, func() { f.close() })
	if err != nil {
		return nil, err
	}
	defer f.close()
	rep.setBestOf("setup_s", setups)

	rounds := max(minRounds, int(math.Ceil(seconds/fleetRound.Seconds())))
	res := f.runOpen(rounds, nil)
	total := rounds * res.perRound
	rep.Attempted, rep.Failed = total, res.failed
	if res.failed > 0 {
		rep.failf("%d of %d answers missing or different from the identity's expected verdict (%s)", res.failed, total, res.answers)
	}
	res.checkGenerator(rep)
	rep.setRounds("ops_per_s", res.delivered)
	rep.setRounds("lat_p50_us", res.perRoundPercentile(50))
	rep.setRounds("lat_p99_us", res.perRoundPercentile(99))
	rep.setRounds("slo_miss_share", res.missShares())
	rep.setRounds("cpu_us_per_op", res.cpuUS)
	rep.set("mallocs_per_op", float64(res.reg.mallocs)/float64(total))
	rep.set("live_heap_mb", liveHeapMiB())

	// The golden pins one round's answers; every round gives the same ones.
	one := newVerdicts()
	one.Admitted = res.answers.Admitted / rounds
	for reason, n := range res.answers.Denied {
		one.Denied[reason] = n / rounds
	}
	gold.checkGate(rep, "fleet_gossip", f.planHash, one)
	runtime.KeepAlive(f)
	rep.finish()
	return rep, nil
}
