package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"funabuse/internal/httpgate"
	"funabuse/internal/obs"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

// Loadgen metric names. Families carry the class name as a label; the
// request family also carries the verdict (admit or the gate's
// X-Denied-By reason).
const (
	metricRequests  = "loadgen_requests_total"
	metricRotations = "loadgen_rotations_total"
	metricDegraded  = "loadgen_degraded_responses_total"
	metricErrors    = "loadgen_transport_errors_total"
	metricBudget    = "loadgen_budget_skipped_total"
	metricLatency   = "loadgen_intended_latency_seconds"
)

// verdictAdmit labels responses that passed every gate layer.
const verdictAdmit = "admit"

// verdictBudgetExhausted marks arrivals never issued because the client's
// budget was spent; Observe hooks see it with Status 0 and no header.
const verdictBudgetExhausted = "budget-exhausted"

// knownVerdicts pre-resolves one counter per verdict the gate can emit —
// admit, then the gate's denial reasons in pipeline order — so the issue
// path never touches the registry lock.
var knownVerdicts = append([]string{verdictAdmit}, httpgate.Reasons()...)

// RunnerConfig assembles a Runner.
type RunnerConfig struct {
	// Plan is the compiled schedule to drive.
	Plan *Plan
	// BaseURL is the target server root, e.g. "http://127.0.0.1:8443".
	BaseURL string
	// Workers is the fleet size; zero selects 1.
	Workers int
	// Virtual, when non-nil, paces the plan on this manual clock instead
	// of wall time: the coordinator advances the clock to each arrival's
	// intended instant and dispatches arrivals in schedule order, one in
	// flight at a time, so the server observes a bit-identical request
	// schedule per seed regardless of worker count. Requests still cross
	// a real socket. When nil the plan is replayed open-loop in wall
	// time: workers sleep until each arrival's intended start and fire,
	// falling behind only in measured latency, never in the schedule.
	Virtual *simclock.Manual
	// Telemetry, when non-nil, exposes live counters and the
	// intended-start latency histogram per class for /metrics scrapes.
	Telemetry *obs.Registry
	// Arm, when non-empty, adds an arm label to every loadgen family so
	// several defence-configuration arms can share one registry.
	Arm string
	// Observe, when non-nil, receives every completed request (including
	// transport failures, with Status 0). Under virtual pacing arrivals
	// dispatch one at a time in schedule order, so the hook sees a
	// deterministic sequence; under wall pacing it must be safe for
	// concurrent use. Experiments use it to bucket outcomes by arrival
	// time — per-window leak timelines — without a second replay.
	Observe func(Observation)
}

// Observation is one completed request as the Observe hook sees it.
type Observation struct {
	// Arrival is the scheduled request, with its intended instant and
	// class/path identity.
	Arrival Arrival
	// Verdict is the gate's X-Denied-By reason, empty when admitted.
	Verdict string
	// Status is the HTTP status, 0 when the transport failed.
	Status int
	// Header is the response header set (nil on transport failure), for
	// markers loadgen itself does not interpret — degradation stamps and
	// the like.
	Header http.Header
}

// classTally is one class's atomic counters, read for the Result and by
// the registry at scrape time.
type classTally struct {
	sent          atomic.Uint64
	admitted      atomic.Uint64
	degraded      atomic.Uint64
	transport     atomic.Uint64
	budgetSkipped atomic.Uint64
	denied        []atomic.Uint64 // indexed like knownVerdicts; 0 (admit) unused

	// latSumNanos accumulates intended-start latency for the mean.
	latSumNanos atomic.Int64

	// Pre-resolved telemetry handles; nil without Telemetry.
	verdictCounters []*obs.Counter
	otherCounter    *obs.Counter
	rotCounter      *obs.Counter
	degCounter      *obs.Counter
	errCounter      *obs.Counter
	budgetCounter   *obs.Counter
	latency         *obs.Histogram
}

// Runner replays a Plan against a live server with an open-loop, paced
// worker fleet. Build one per run with NewRunner; Run drives the whole
// plan and returns the Result.
type Runner struct {
	cfg    RunnerConfig
	client *http.Client
	fleets [][]*client
	tally  []*classTally
	// epoch maps plan time onto the pacer: in wall mode, wallStart +
	// (arrival.At - epoch) is the intended start.
	epoch time.Time
}

// NewRunner builds the client fleets and telemetry handles for the plan.
func NewRunner(cfg RunnerConfig) (*Runner, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("loadgen: RunnerConfig.Plan is nil")
	}
	if err := cfg.Plan.Scenario.Validate(); err != nil {
		return nil, err
	}
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: RunnerConfig.BaseURL is empty")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	httpClient := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: cfg.Workers * 2},
	}
	sc := cfg.Plan.Scenario
	root := simrand.New(sc.Seed)
	r := &Runner{
		cfg:    cfg,
		client: httpClient,
		fleets: make([][]*client, len(sc.Classes)),
		tally:  make([]*classTally, len(sc.Classes)),
		epoch:  sc.Start,
	}
	for ci, c := range sc.Classes {
		r.fleets[ci] = newFleet(root, ci, c)
		r.tally[ci] = newClassTally(cfg.Telemetry, cfg.Arm, c.Name)
	}
	return r, nil
}

// newClassTally wires one class's counters, pre-resolving registry
// handles when telemetry is enabled.
func newClassTally(reg *obs.Registry, arm, class string) *classTally {
	t := &classTally{denied: make([]atomic.Uint64, len(knownVerdicts))}
	if reg == nil {
		return t
	}
	reg.Help(metricRequests, "Load-generator requests by class and gate verdict.")
	reg.Help(metricRotations, "Adaptive-attacker fingerprint rotations by class.")
	reg.Help(metricDegraded, "Responses carrying the X-Gate-Degraded header, by class.")
	reg.Help(metricErrors, "Requests that failed at the transport layer, by class.")
	reg.Help(metricBudget, "Scheduled arrivals skipped because the client's budget was spent, by class.")
	reg.Help(metricLatency, "Latency from intended start (coordinated-omission-safe), by class.")
	var base []obs.Label
	if arm != "" {
		base = append(base, obs.Label{Name: "arm", Value: arm})
	}
	base = append(base, obs.Label{Name: "class", Value: class})
	withVerdict := func(v string) []obs.Label {
		return append(append([]obs.Label{}, base...), obs.Label{Name: "verdict", Value: v})
	}
	t.verdictCounters = make([]*obs.Counter, len(knownVerdicts))
	for i, v := range knownVerdicts {
		t.verdictCounters[i] = reg.Counter(metricRequests, withVerdict(v)...)
	}
	t.otherCounter = reg.Counter(metricRequests, withVerdict("other")...)
	t.rotCounter = reg.Counter(metricRotations, base...)
	t.degCounter = reg.Counter(metricDegraded, base...)
	t.errCounter = reg.Counter(metricErrors, base...)
	t.budgetCounter = reg.Counter(metricBudget, base...)
	t.latency = reg.Histogram(metricLatency, nil, base...)
	return t
}

// Run replays the whole plan and assembles the Result. It blocks until
// every scheduled request has completed.
func (r *Runner) Run() (*Result, error) {
	if r.cfg.Virtual != nil {
		r.runVirtual()
	} else {
		r.runWall()
	}
	return r.result(), nil
}

// runVirtual replays the schedule on the manual clock: the coordinator
// advances time to each arrival and hands it to a worker, waiting for
// completion before moving on. One request is in flight at a time, so
// the gate observes the exact scheduled sequence — the property the
// workers-1-vs-N golden test pins — while requests still traverse real
// sockets and the real worker fleet.
func (r *Runner) runVirtual() {
	workers := r.cfg.Workers
	chans := make([]chan Arrival, workers)
	ack := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		chans[w] = make(chan Arrival)
		wg.Add(1)
		go func(jobs <-chan Arrival) {
			defer wg.Done()
			for a := range jobs {
				r.issue(a, a.At)
				ack <- struct{}{}
			}
		}(chans[w])
	}
	for i, a := range r.cfg.Plan.Arrivals {
		r.cfg.Virtual.SetAt(a.At)
		chans[i%workers] <- a
		<-ack
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
}

// runWall replays the schedule open-loop in wall time: workers pull
// arrivals in schedule order from a shared cursor and sleep until each
// one's intended start. A saturated server delays completions, not the
// schedule — the backlog shows up in the intended-start latency, which
// is the coordinated-omission-safe measurement.
func (r *Runner) runWall() {
	arrivals := r.cfg.Plan.Arrivals
	wallStart := time.Now()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for range r.cfg.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				intended := wallStart.Add(a.At.Sub(r.epoch))
				if d := time.Until(intended); d > 0 {
					time.Sleep(d)
				}
				r.issue(a, intended)
			}
		}()
	}
	wg.Wait()
}

// issue fires one scheduled request and feeds the response back into the
// client's adaptation logic. intended is the request's intended start on
// the runner's clock; latency is measured from it.
func (r *Runner) issue(a Arrival, intended time.Time) {
	cl := r.fleets[a.Class][a.Client]
	t := r.tally[a.Class]

	// The budget check precedes identity resolution: a client with no
	// money left neither sends nor re-registers.
	if !cl.charge() {
		t.budgetSkipped.Add(1)
		if t.budgetCounter != nil {
			t.budgetCounter.Inc()
		}
		if r.cfg.Observe != nil {
			r.cfg.Observe(Observation{Arrival: a, Verdict: verdictBudgetExhausted})
		}
		return
	}

	fpHex, sid, ip, rotated := cl.identity(a.At)
	if rotated && t.rotCounter != nil {
		t.rotCounter.Inc()
	}

	t.sent.Add(1)
	url := r.cfg.BaseURL + a.Path
	if a.Resource >= 0 {
		url += "?pnr=" + ResourceRef(a.Resource)
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.transport.Add(1)
		if t.errCounter != nil {
			t.errCounter.Inc()
		}
		if r.cfg.Observe != nil {
			r.cfg.Observe(Observation{Arrival: a})
		}
		return
	}
	req.Header.Set(httpgate.FingerprintHeader, fpHex)
	req.Header.Set("X-Forwarded-For", ip)
	req.AddCookie(&http.Cookie{Name: httpgate.ClientCookie, Value: sid})

	resp, err := r.client.Do(req)
	if err != nil {
		t.transport.Add(1)
		if t.errCounter != nil {
			t.errCounter.Inc()
		}
		if r.cfg.Observe != nil {
			r.cfg.Observe(Observation{Arrival: a})
		}
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()

	now := r.now()
	lat := now.Sub(intended)
	if lat < 0 {
		lat = 0
	}
	t.latSumNanos.Add(int64(lat))
	if t.latency != nil {
		t.latency.Observe(lat.Seconds())
	}

	deniedBy := resp.Header.Get(httpgate.ReasonHeader)
	degraded := resp.Header.Get(httpgate.DegradedHeader)
	if degraded != "" {
		t.degraded.Add(1)
		if t.degCounter != nil {
			t.degCounter.Inc()
		}
	}
	t.record(deniedBy, resp.StatusCode)
	cl.observe(a.At, deniedBy, degradedLists(degraded, httpgate.LayerBlocklist.String()))
	if r.cfg.Observe != nil {
		r.cfg.Observe(Observation{
			Arrival: a,
			Verdict: deniedBy,
			Status:  resp.StatusCode,
			Header:  resp.Header,
		})
	}
}

// record counts one response under its verdict.
func (t *classTally) record(deniedBy string, status int) {
	if deniedBy == "" && status < 400 {
		t.admitted.Add(1)
		if t.verdictCounters != nil {
			t.verdictCounters[0].Inc()
		}
		return
	}
	for i, v := range knownVerdicts[1:] {
		if deniedBy == v {
			t.denied[i+1].Add(1)
			if t.verdictCounters != nil {
				t.verdictCounters[i+1].Inc()
			}
			return
		}
	}
	if t.otherCounter != nil {
		t.otherCounter.Inc()
	}
}

// degradedLists reports whether the comma-separated DegradedHeader value
// names the given layer.
func degradedLists(header, layer string) bool {
	if header == "" {
		return false
	}
	for len(header) > 0 {
		next := header
		if i := strings.IndexByte(header, ','); i >= 0 {
			next, header = header[:i], header[i+1:]
		} else {
			header = ""
		}
		if next == layer {
			return true
		}
	}
	return false
}

// now reads the runner's clock: the manual clock in virtual mode, wall
// time otherwise.
func (r *Runner) now() time.Time {
	if r.cfg.Virtual != nil {
		return r.cfg.Virtual.Now()
	}
	return time.Now()
}
