package loadgen

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

// DirectTarget is an in-process decision surface: the seam that lets the
// load generator drive a single gate (*httpgate.Gate) or a routed fleet
// (*cluster.Cluster) without sockets, serialization or HTTP parsing —
// the configuration that exposes the decision engine's own throughput
// ceiling rather than the network stack's.
type DirectTarget interface {
	Decide(r *http.Request, info httpgate.ClientInfo) httpgate.Decision
	DecideBatch(reqs []httpgate.Request, out []httpgate.Decision) []httpgate.Decision
}

// DirectConfig assembles a direct (in-process) load run.
type DirectConfig struct {
	// Plan is the compiled schedule to replay.
	Plan *Plan
	// Target is the decision surface under load.
	Target DirectTarget
	// Batch selects the decision entry point: values > 1 drive chunks of
	// that size through DecideBatch; 1 (or less) uses per-request Decide.
	// Comparing the two at the same plan is the batch-amortization
	// measurement the E14/E15 reports cite.
	Batch int
	// Virtual, when non-nil, is set to each chunk's first scheduled
	// instant before the chunk is decided, so limiter windows see plan
	// time while the run itself proceeds at full speed. When nil the
	// target's own clock paces the windows.
	Virtual *simclock.Manual
}

// DirectResult summarizes one direct run.
type DirectResult struct {
	// Requests is the number of plan arrivals replayed.
	Requests int
	// Batch is the chunk size the run used (1 = per-request Decide).
	Batch int
	// Admitted and Denied partition the verdicts; Verdicts breaks denials
	// out by gate reason.
	Admitted uint64
	Denied   uint64
	Verdicts map[string]uint64
	// Degraded counts decisions made with at least one layer degraded.
	Degraded uint64
	// Elapsed is the wall time of the decision loop (identity derivation
	// and request construction happen before the measured region).
	Elapsed time.Duration
}

// Throughput returns decisions per wall-clock second.
func (r *DirectResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// RunDirect replays the plan against an in-process target as fast as the
// decision path allows. Identities are derived from the same seeded
// client fleets the socket Runner uses, but without response feedback:
// direct mode measures decision throughput, not the adaptive arms race —
// rotation driven by denial observations needs the socket Runner.
func RunDirect(cfg DirectConfig) (*DirectResult, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("loadgen: DirectConfig.Plan is nil")
	}
	if cfg.Target == nil {
		return nil, fmt.Errorf("loadgen: DirectConfig.Target is nil")
	}
	if err := cfg.Plan.Scenario.Validate(); err != nil {
		return nil, err
	}
	batch := cfg.Batch
	if batch < 1 {
		batch = 1
	}

	// Pre-build every request and its attribution outside the measured
	// region: the run times the target's decisions, not the harness's
	// string assembly.
	sc := cfg.Plan.Scenario
	root := simrand.New(sc.Seed)
	fleets := make([][]*client, len(sc.Classes))
	for ci, c := range sc.Classes {
		fleets[ci] = newFleet(root, ci, c)
	}
	arrivals := cfg.Plan.Arrivals
	reqs := make([]httpgate.Request, len(arrivals))
	for i, a := range arrivals {
		cl := fleets[a.Class][a.Client]
		fpHex, sid, ip, _ := cl.identity(a.At)
		url := "http://direct" + a.Path
		if a.Resource >= 0 {
			url += "?pnr=" + ResourceRef(a.Resource)
		}
		r, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return nil, fmt.Errorf("loadgen: direct request %d: %w", i, err)
		}
		fp, err := strconv.ParseUint(fpHex, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: direct request %d fingerprint: %w", i, err)
		}
		reqs[i] = httpgate.Request{R: r, Info: httpgate.ClientInfo{
			IP: ip, Fingerprint: fp, HasFingerprint: true, ClientKey: sid,
		}}
	}

	res := &DirectResult{
		Requests: len(arrivals),
		Batch:    batch,
		Verdicts: make(map[string]uint64),
	}
	out := make([]httpgate.Decision, 0, batch)
	start := time.Now()
	for lo := 0; lo < len(reqs); lo += batch {
		hi := min(lo+batch, len(reqs))
		if cfg.Virtual != nil {
			cfg.Virtual.SetAt(arrivals[lo].At)
		}
		if batch == 1 {
			res.tally(cfg.Target.Decide(reqs[lo].R, reqs[lo].Info))
			continue
		}
		out = cfg.Target.DecideBatch(reqs[lo:hi], out)
		for _, d := range out {
			res.tally(d)
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// tally folds one decision into the result.
func (r *DirectResult) tally(d httpgate.Decision) {
	if d.Reason == "" {
		r.Admitted++
	} else {
		r.Denied++
		r.Verdicts[d.Reason]++
	}
	if d.Degraded != 0 {
		r.Degraded++
	}
}
