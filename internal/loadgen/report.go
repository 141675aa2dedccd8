package loadgen

import (
	"time"
)

// ClassResult is one traffic class's outcome: what was sent, how the
// gate ruled, and — for abusive classes — the rotation log the arms-race
// analysis joins against the defender's rules.
type ClassResult struct {
	Name string
	Kind ClassKind
	// Sent counts requests handed to the transport; TransportErrors the
	// ones that never produced a gate verdict.
	Sent            uint64
	TransportErrors uint64
	// Admitted passed every layer; Denied maps the gate's X-Denied-By
	// reason to its count; Other counts non-gate rejections.
	Admitted uint64
	Denied   map[string]uint64
	Other    uint64
	// DegradedSeen counts responses carrying X-Gate-Degraded.
	DegradedSeen uint64
	// Rotations is every identity change the class's clients performed,
	// in per-client order.
	Rotations []Rotation
	// MeanLatency is the mean intended-start latency (zero in virtual
	// runs, where the clock stands still inside each request).
	MeanLatency time.Duration
	// Economics, populated when the class carries an EconModel: total
	// spend, account registrations (initial fleet plus re-registrations),
	// accounts burned by blocking rules, and scheduled arrivals skipped
	// because a client's budget was spent.
	SpendUSD      float64
	Registrations int
	Burned        int
	BudgetSkipped uint64
}

// Completed is the number of requests that produced a gate verdict.
func (c ClassResult) Completed() uint64 {
	return c.Sent - c.TransportErrors
}

// Result is one load-generation run's outcome, per class.
type Result struct {
	// PlanHash digests the schedule that was replayed; two runs of one
	// seed report the same hash.
	PlanHash uint64
	Classes  []ClassResult
}

// Rotations flattens every abusive class's rotation log.
func (r *Result) Rotations() []Rotation {
	var out []Rotation
	for _, c := range r.Classes {
		out = append(out, c.Rotations...)
	}
	return out
}

// Completed sums ClassResult.Completed over every class.
func (r *Result) Completed() uint64 {
	var done uint64
	for _, c := range r.Classes {
		done += c.Completed()
	}
	return done
}

// AbusiveLeakRate is the share of the abusive classes' completed requests
// the gate admitted — the paper's leakage measure under that defence
// configuration. ok is false when no abusive request completed.
func (r *Result) AbusiveLeakRate() (rate float64, ok bool) {
	return r.admitRate(true)
}

// HonestAdmitRate is the same share over the non-abusive classes — the
// paper's cost-to-honest-users measure. ok is false when no honest
// request completed.
func (r *Result) HonestAdmitRate() (rate float64, ok bool) {
	return r.admitRate(false)
}

// admitRate is admitted/completed over the classes whose Kind.Abusive()
// equals abusive.
func (r *Result) admitRate(abusive bool) (rate float64, ok bool) {
	var admitted, done uint64
	for _, c := range r.Classes {
		if c.Kind.Abusive() != abusive {
			continue
		}
		admitted += c.Admitted
		done += c.Completed()
	}
	if done == 0 {
		return 0, false
	}
	return float64(admitted) / float64(done), true
}

// result assembles the Result from the runner's tallies and fleets.
func (r *Runner) result() *Result {
	res := &Result{PlanHash: r.cfg.Plan.Hash()}
	for ci, c := range r.cfg.Plan.Scenario.Classes {
		t := r.tally[ci]
		cr := ClassResult{
			Name:            c.Name,
			Kind:            c.Kind,
			Sent:            t.sent.Load(),
			TransportErrors: t.transport.Load(),
			Admitted:        t.admitted.Load(),
			Other:           t.other.Load(),
			DegradedSeen:    t.degraded.Load(),
			Denied:          make(map[string]uint64),
		}
		for i, v := range knownVerdicts[1:] {
			if n := t.denied[i+1].Load(); n > 0 {
				cr.Denied[v] = n
			}
		}
		cr.BudgetSkipped = t.budgetSkipped.Load()
		for _, cl := range r.fleets[ci] {
			cr.Rotations = append(cr.Rotations, cl.takeRotations()...)
			spend, regs, burned := cl.econSnapshot()
			cr.SpendUSD += spend
			cr.Registrations += regs
			cr.Burned += burned
		}
		if done := cr.Completed(); done > 0 {
			cr.MeanLatency = time.Duration(t.latSumNanos.Load() / int64(done))
		}
		res.Classes = append(res.Classes, cr)
	}
	return res
}
