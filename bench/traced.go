package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"time"

	"funabuse/internal/runner"
)

// The traced pass of a workload re-runs a shortened copy of it twice, once
// plain and once with spans recorded, and then probes the layers the
// workload exercises. Each of the two copies gets this share of -seconds.
const tracedCopyShare = 0.2

// busyShare is process CPU over what the box could have given.
func busyShare(cpu float64, wall time.Duration) float64 {
	return cpu / (wall.Seconds() * float64(runtime.NumCPU()))
}

// overhead is the share of throughput the span recording cost.
func overhead(plain, traced float64) float64 {
	if plain <= 0 {
		return 0
	}
	return (plain - traced) / plain
}

// finishTrace writes the trace file and completes the report.
func finishTrace(rep *report, outDir string, spans []span) error {
	if err := writeTrace(outDir, rep.Workload, spans); err != nil {
		return err
	}
	fillMissing(rep)
	rep.finish()
	return nil
}

// traceGate is the traced pass of gate_direct and gate_churn.
func traceGate(name string, churn bool, seed uint64, seconds float64, outDir string) (*report, error) {
	rep := newReport(name, seed, true)
	g, err := setupGate(seed, gatePlanDur(churn), churn)
	if err != nil {
		return nil, err
	}
	n := len(g.in.reqs)
	lat := make([]float64, n)
	budget := seconds * tracedCopyShare
	var ref *verdicts
	check := func(v *verdicts) {
		rep.Attempted += n
		if ref == nil {
			ref = v
		} else if d := v.distance(ref); d > 0 {
			rep.Failed += d
			rep.failf("verdicts %s differ from the first replay's %s", v, ref)
		}
	}
	// repeat runs one replay kind until its share of the time is spent and
	// returns the per-replay throughputs.
	repeat := func(replay func(v *verdicts)) []float64 {
		var opsPS []float64
		for start := time.Now(); len(opsPS) < 2 || time.Since(start).Seconds() < budget; {
			v := newVerdicts()
			t0 := time.Now()
			replay(v)
			opsPS = append(opsPS, float64(n)/time.Since(t0).Seconds())
			check(v)
		}
		return opsPS
	}

	var reg region
	reg.begin()
	plain := repeat(func(v *verdicts) { g.replayDecide(g.st.gate, v) })
	reg.end()
	rep.set("driver.cpu_busy_share", busyShare(reg.cpu, reg.wall))
	rep.setRounds("batch_ops_per_s", repeat(func(v *verdicts) { g.replayBatch(g.st.gate, v) })[:2])

	v := newVerdicts()
	g.replayTimed(g.st.gate, v, lat)
	check(v)
	slices.Sort(lat)
	rep.set("lat_p99_us", percentile(lat, 99))
	rep.setNote("driver.lat_p999_us", percentile(lat, 99.9), fmt.Sprintf("%d decisions", n))

	g.rec = newRecorder()
	traced := repeat(func(v *verdicts) { g.replayTimed(g.st.gate, v, lat) })
	rec := g.rec
	g.rec = nil
	rep.set("trace.overhead_share", overhead(median(plain), median(traced)))
	rep.set("httpgate.deny_share", 1-float64(ref.Admitted)/float64(n))

	probeGateLayers(rep, g, seed)
	g.checkShares(rep, ref)
	return rep, finishTrace(rep, outDir, rec.snapshot())
}

// cannedResponder answers every request on every connection with the same
// bytes and looks at nothing: the raw client against it is the client
// alone.
func cannedResponder() (addr string, closeFn func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	canned := []byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n")
	done := make(chan struct{})
	conns := make(chan net.Conn, loadConns) // every connection the harness dials, so close can end them
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns <- c
			go func() {
				br := bufio.NewReaderSize(c, 64<<10)
				for {
					line, err := br.ReadSlice('\n')
					if err != nil {
						return
					}
					if len(line) <= 2 { // the blank line ending a request
						if _, err := c.Write(canned); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() {
		_ = ln.Close()
		<-done
		close(conns)
		for c := range conns {
			_ = c.Close()
		}
	}, nil
}

// againstServer runs the socket workload's requests, closed loop, against
// another server: one warm round, one measured. It returns the measured
// round's median latency in µs and its mallocs per request.
func againstServer(in *socketInputs, addr string) (p50us, mallocsPerReq, nsPerOp float64, err error) {
	s := &socketRun{in: in, srv: &gateServer{close: func() {}}}
	defer s.close()
	for c := range s.conns {
		if s.conns[c], err = dialLoad(addr); err != nil {
			return 0, 0, 0, err
		}
		s.lat[c] = make([]float64, len(in.conns[c]))
	}
	s.round(nil)
	var reg region
	reg.begin()
	wall, _, v := s.round(nil)
	reg.end()
	if got := v.Admitted + len(v.Denied); got == 0 {
		return 0, 0, 0, fmt.Errorf("no answers from %s", addr)
	}
	return percentile(s.latencies(), 50), float64(reg.mallocs) / float64(in.total),
		float64(wall) / float64(in.total), nil
}

// traceSocket is the traced pass of gate_socket.
func traceSocket(seed uint64, seconds float64, outDir string) (*report, error) {
	rep := newReport("gate_socket", seed, true)
	budget := seconds * tracedCopyShare
	// copyRun runs rounds for the budget and returns per-round throughput
	// and every request's latency.
	copyRun := func(s *socketRun, rec *recorder) (opsPS, lat []float64) {
		for start := time.Now(); len(opsPS) < 2 || time.Since(start).Seconds() < budget; {
			wall, failed, v := s.round(rec)
			rep.Attempted += s.in.total
			rep.Failed += failed
			if failed > 0 {
				rep.failf("%d of %d answers differ from the identity's expected verdict (%s)", failed, s.in.total, v)
			}
			opsPS = append(opsPS, float64(s.in.total)/wall.Seconds())
			lat = append(lat, s.latencies()...)
		}
		slices.Sort(lat)
		return opsPS, lat
	}

	s, err := setupSocket(seed, nil)
	if err != nil {
		return nil, err
	}
	var reg region
	reg.begin()
	plain, lat := copyRun(s, nil)
	reg.end()
	rep.set("driver.cpu_busy_share", busyShare(reg.cpu, reg.wall))
	rep.set("lat_p99_us", percentile(lat, 99))
	rep.setNote("driver.lat_p999_us", percentile(lat, 99.9), fmt.Sprintf("%d requests", len(lat)))
	// Latency of the admitted requests alone, for the budget check below.
	var admitted []float64
	for c := range s.lat {
		for i, l := range s.lat[c] {
			if s.in.conns[c][i].reason == "" {
				admitted = append(admitted, l)
			}
		}
	}
	denied := s.in.total - len(admitted)
	rep.set("httpgate.deny_share", float64(denied)/float64(s.in.total))
	s.close()

	rec := newRecorder()
	if s, err = setupSocket(seed, rec); err != nil {
		return nil, err
	}
	traced, _ := copyRun(s, rec)
	in := s.in
	s.close()
	rep.set("trace.overhead_share", overhead(median(plain), median(traced)))
	spans := rec.snapshot()
	joinByRequest(spans, spanBackend, spanHandle)
	joinByRequest(spans, spanHandle, spanRequest)
	if sum := summarize(spans)[spanHandle]; sum != nil {
		rep.setNote("httpgate.inline_self_us", sum.MedSelfUS, fmt.Sprintf("%d spans", sum.Count))
	}

	// The floor no repository change can move, and the client on its own.
	bareAddr, closeBare, err := serveOn(okBackend)
	if err != nil {
		return nil, err
	}
	bareP50, bareMallocs, _, err := againstServer(in, bareAddr)
	closeBare()
	if err != nil {
		return nil, err
	}
	rep.set("socket.bare_mallocs_per_req", bareMallocs)
	cannedAddr, closeCanned, err := cannedResponder()
	if err != nil {
		return nil, err
	}
	_, _, selfNS, err := againstServer(in, cannedAddr)
	closeCanned()
	if err != nil {
		return nil, err
	}

	g, err := setupGate(seed, directPlanDur, false)
	if err != nil {
		return nil, err
	}
	probeGateLayers(rep, g, seed)
	// The layer probes ran over the in-process stream; these two describe
	// the socket workload's own round and its own driver.
	rep.set("loadgen.plan_arrivals", float64(in.total))
	rep.set("driver.self_ns_per_op", selfNS*loadConns) // per request on one connection, client side
	// The budget must sum to the end-to-end number: bare socket plus the
	// gate's Wrap is what an admitted request costs.
	budgetUS := bareP50 + rep.Metrics["httpgate.wrap_admit_ns"].Value/1e3
	slices.Sort(admitted)
	admitP50 := percentile(admitted, 50)
	rep.setNote("socket.bare_us_per_req", bareP50, fmt.Sprintf(
		"bare + wrap_admit = %.1f us against %.1f us admitted lat_p50: %+.0f%%", budgetUS, admitP50, 100*(budgetUS-admitP50)/admitP50))
	return rep, finishTrace(rep, outDir, spans)
}

// traceFleet is the traced pass of fleet_gossip.
func traceFleet(seed uint64, seconds float64, outDir string) (*report, error) {
	rep := newReport("fleet_gossip", seed, true)
	rounds := max(3, int(math.Ceil(seconds*tracedCopyShare)))
	tally := func(res *openResult) {
		rep.Attempted += rounds * res.perRound
		rep.Failed += res.failed
		if res.failed > 0 {
			rep.failf("%d answers missing or different from the identity's expected verdict (%s)", res.failed, res.answers)
		}
		res.checkGenerator(rep)
	}

	f, err := setupFleet(seed, nil)
	if err != nil {
		return nil, err
	}
	plain := f.runOpen(rounds, nil)
	f.close()
	tally(plain)
	rep.setRounds("lat_p99_us", plain.perRoundPercentile(99))
	rep.setRounds("slo_miss_share", plain.missShares())
	rep.set("driver.gen_late_p50_us", percentile(plain.late, 50))
	rep.set("driver.gen_late_p99_us", percentile(plain.late, 99))
	var pooled []float64
	for _, l := range plain.lat {
		pooled = append(pooled, l...)
	}
	slices.Sort(pooled)
	rep.setNote("driver.lat_p999_us", percentile(pooled, 99.9), fmt.Sprintf("%d requests", len(pooled)))
	rep.set("driver.cpu_busy_share", busyShare(plain.reg.cpu, plain.wall))
	rep.set("httpgate.deny_share", 1-float64(plain.answers.Admitted)/float64(len(pooled)))

	rec := newRecorder()
	if f, err = setupFleet(seed, rec); err != nil {
		return nil, err
	}
	defer f.close()
	warmSpans := len(rec.snapshot())
	before := f.cluster.GossipRounds()
	traced := f.runOpen(rounds, rec)
	gossips := f.cluster.GossipRounds() - before
	tally(traced)
	rep.set("trace.overhead_share", overhead(median(plain.delivered), median(traced.delivered)))
	rep.set("cluster.gossip_rounds", float64(gossips))

	spans := rec.snapshot()[warmSpans:]
	joinByRequest(spans, spanHandle, spanRequest)
	stalls := 0
	for _, s := range spans {
		if s.Name == spanHandle && s.End-s.Start > int64(time.Millisecond) {
			stalls++
		}
	}
	rep.set("cluster.front_stalls", float64(stalls))
	if sum := summarize(spans)[spanHandle]; sum != nil {
		rep.setNote("cluster.front_self_us", sum.MedSelfUS, fmt.Sprintf("%d spans", sum.Count))
	}

	probeFleetLayers(rep, f)
	roundMS := rep.Metrics["cluster.gossip_round_ms"].Value
	rep.set("cluster.gossip_stall_share", float64(gossips)*roundMS/1e3/traced.wall.Seconds())
	// The raw client against the canned responder is the same probe the
	// socket workload reports; the fleet's driver adds only the pacing.
	rep.setNote("driver.self_ns_per_op", 0, "see gate_socket: same raw client")
	return rep, finishTrace(rep, outDir, spans)
}

// traceRepro is the traced pass of paper_repro.
func traceRepro(seed uint64, seconds float64, outDir string) (*report, error) {
	rep := newReport("paper_repro", seed, true)
	if err := setupRepro(seed); err != nil {
		return nil, err
	}
	tally := func(res *sweepResult) {
		rep.Attempted += res.ops
		for _, err := range res.errs {
			rep.Failed += reproReplicates
			rep.failf("%v", err)
		}
	}
	var reg region
	reg.begin()
	plain := sweep(seed, nil)
	reg.end()
	tally(plain)
	rep.set("driver.cpu_busy_share", busyShare(reg.cpu, reg.wall))
	lat := slices.Clone(plain.replicate)
	slices.Sort(lat)
	rep.set("lat_p99_us", percentile(lat, 99)*1e6)
	rep.setNote("driver.lat_p999_us", percentile(lat, 99.9)*1e6,
		fmt.Sprintf("%d replicate runs support p%g only", len(lat), supportedPercentile(len(lat))))

	rec := newRecorder()
	traced := sweep(seed, rec)
	tally(traced)
	for key, digest := range traced.digests {
		if digest != plain.digests[key] {
			rep.Failed++
			rep.failf("sample digest of %s differs between the plain and the traced sweep", key)
		}
	}
	rep.set("trace.overhead_share", overhead(float64(plain.ops)/plain.wall.Seconds(), float64(traced.ops)/traced.wall.Seconds()))
	rep.set("runner.sweep_s", traced.wall.Seconds())
	rep.set("runner.parallel_efficiency", sum(traced.replicate)/(float64(runtime.NumCPU())*traced.wall.Seconds()))

	const noops = 2000
	rep.setRounds("driver.self_ns_per_op", timeOps(noops, nil, func() {
		_, err := runner.Run("noop", runner.Config{Replicates: noops, Workers: runtime.NumCPU(), BaseSeed: 1},
			func(uint64) (runner.Sample, error) { return nil, nil })
		if err != nil {
			rep.failf("runner.Run of a no-op: %v", err)
		}
	}))
	probeCore(rep, seed)
	return rep, finishTrace(rep, outDir, rec.snapshot())
}
