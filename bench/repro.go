package main

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"funabuse/internal/core"
	"funabuse/internal/runner"
)

// reproReplicates is how many consecutive seeds every experiment runs per
// sweep; an operation of this workload is one (experiment, seed) run.
const reproReplicates = 2

// replicateLog collects what the wrapped experiment functions observe. The
// runner calls them from its worker goroutines.
type replicateLog struct {
	mu       sync.Mutex
	seconds  map[uint64]float64 // seed -> duration, for the experiment now running
	rec      *recorder
	parentID uint32 // the runner.run span the replicates belong to
}

// timed wraps one experiment so that every replicate's duration (and, when
// traced, its span) is recorded from the benchmark's side of the call.
func (l *replicateLog) timed(id string, fn runner.Func) runner.Func {
	return func(seed uint64) (runner.Sample, error) {
		t0 := time.Now()
		s, err := fn(seed)
		t1 := time.Now()
		l.mu.Lock()
		l.seconds[seed] = t1.Sub(t0).Seconds()
		parent := l.parentID
		l.mu.Unlock()
		l.rec.add(spanReplicate, parent, seed, t0, t1)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", id, seed, err)
		}
		return s, nil
	}
}

// sweepResult is one pass over every experiment.
type sweepResult struct {
	wall      time.Duration
	ops       int
	expWall   []float64         // seconds per experiment (its runner.Run), in sweep order
	expCPU    []float64         // process CPU seconds per experiment
	replicate []float64         // seconds per (experiment, seed), in sweep then seed order
	digests   map[string]string // "<experiment>/<seed>" -> sample digest
	kept      []*runner.Summary
	errs      []error
}

// sweep runs every core.Experiments() entry through runner.Run.
func sweep(seed uint64, rec *recorder) *sweepResult {
	base := max(seed, 1) // the runner reads seed 0 as 1
	res := &sweepResult{digests: make(map[string]string)}
	log := &replicateLog{rec: rec}
	start := time.Now()
	for _, e := range core.Experiments() {
		span := rec.begin(spanSweep, 0, 0)
		log.mu.Lock()
		log.parentID, log.seconds = span, make(map[uint64]float64)
		log.mu.Unlock()
		c0, t0 := cpuSeconds(), time.Now()
		sum, err := runner.Run(e.ID, runner.Config{
			Replicates: reproReplicates,
			Workers:    runtime.NumCPU(),
			BaseSeed:   base,
		}, log.timed(e.ID, e.Run))
		res.expWall = append(res.expWall, time.Since(t0).Seconds())
		res.expCPU = append(res.expCPU, cpuSeconds()-c0)
		rec.end(span)
		res.ops += reproReplicates
		for i := range uint64(reproReplicates) {
			res.replicate = append(res.replicate, log.seconds[base+i])
		}
		if err != nil {
			res.errs = append(res.errs, err)
			continue
		}
		for i, s := range sum.Samples {
			res.digests[e.ID+"/"+strconv.FormatUint(base+uint64(i), 10)] = sampleDigest(s)
		}
		res.kept = append(res.kept, sum)
	}
	res.wall = time.Since(start)
	return res
}

// setupRepro runs the two cheapest experiments once, so the first measured
// sweep does not pay for a cold heap.
func setupRepro(seed uint64) error {
	for _, id := range []string{"chaos", "ablations"} {
		fn, ok := core.ExperimentByID(id)
		if !ok {
			return fmt.Errorf("experiment %s missing", id)
		}
		if _, err := fn(max(seed, 1)); err != nil {
			return fmt.Errorf("warm-up %s: %w", id, err)
		}
	}
	return nil
}

// measureRepro is the untraced pass of paper_repro. A sweep takes several
// seconds, so only two or three fit a run, too few for a median to shed a
// noise burst: every experiment counts at the fastest of its sweeps
// instead (see rounds.best).
func measureRepro(seed uint64, seconds float64, gold *golden) (*report, error) {
	rep := newReport("paper_repro", seed, false)
	setups, err := repeatSetup(func() error { return setupRepro(seed) }, nil)
	if err != nil {
		return nil, err
	}
	rep.setBestOf("setup_s", setups)

	var expWall, expCPU, replicate rounds
	var opsPS []float64
	var first *sweepResult
	var kept []*sweepResult
	var reg region
	reg.begin()
	start := time.Now()
	for n := 0; n < 2 || time.Since(start).Seconds() < seconds; n++ {
		res := sweep(seed, nil)
		kept = append(kept, res)
		rep.Attempted += res.ops
		for _, err := range res.errs {
			rep.Failed += reproReplicates
			rep.failf("sweep %d: %v", n, err)
		}
		opsPS = append(opsPS, float64(res.ops)/res.wall.Seconds())
		expWall, expCPU = append(expWall, res.expWall), append(expCPU, res.expCPU)
		replicate = append(replicate, res.replicate)
		if first == nil {
			first = res
			for key, digest := range res.digests {
				gold.checkDigest(rep, key, digest)
			}
			continue
		}
		for key, digest := range res.digests {
			if digest != first.digests[key] {
				rep.Failed++
				rep.failf("sweep %d: sample digest of %s is %s, the first sweep's was %s", n, key, digest, first.digests[key])
			}
		}
	}
	reg.end()
	ops := float64(rep.Attempted)
	rep.setAssembled("ops_per_s", float64(first.ops)/sum(expWall.best()), opsPS)
	rep.setAssembled("cpu_us_per_op", sum(expCPU.best())*1e6/float64(first.ops), scale(expCPU.totals(), 1e6/float64(first.ops)))
	rep.set("mallocs_per_op", float64(reg.mallocs)/ops)

	lat := replicate.best()
	slices.Sort(lat)
	note := fmt.Sprintf("%d replicate runs, each at the fastest of %d sweeps", len(lat), len(replicate))
	rep.setNote("lat_p50_us", percentile(lat, 50)*1e6, note)
	rep.setNote("lat_p99_us", percentile(lat, 99)*1e6,
		fmt.Sprintf("%s; they support p%g only: this is the slowest replicate, the sweep's critical path", note, supportedPercentile(len(lat))))
	rep.set("live_heap_mb", liveHeapMiB())
	runtime.KeepAlive(kept)
	rep.finish()
	return rep, nil
}
