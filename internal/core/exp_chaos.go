package core

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"funabuse/internal/faultinject"
	"funabuse/internal/httpgate"
	"funabuse/internal/metrics"
	"funabuse/internal/obs"
	"funabuse/internal/resilience"
	"funabuse/internal/runner"
	"funabuse/internal/signal"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

// The chaos experiment measures what a defence layer's outage costs under
// each fail policy. It replays two synthetic workloads shaped after the
// paper's incidents — Case A seat-spinning (a rotating-fingerprint attacker
// against a lagging blocklist) and the Table I SMS pump (a few premium
// numbers against a per-resource limit) — through the HTTP gate three
// times: once healthy, once with the defence layer flapping under
// fail-open, once under fail-closed. Comparing each request's verdict with
// the healthy run splits the outage cost into its two currencies: abuse
// leakage (abusive requests the healthy gate denied, admitted during the
// outage) under fail-open, and false denials (honest requests the healthy
// gate admitted, denied during the outage) under fail-closed.
//
// The replay is serial and every timestamp comes from a virtual clock the
// flap schedule is keyed on, so the result is a pure function of the seed.

// chaosEvent is one replayed request.
type chaosEvent struct {
	at       time.Time
	path     string
	ip       string
	sid      string
	fp       uint64
	resource string
	abusive  bool
}

// ChaosArm is one (workload, policy) outage measurement.
type ChaosArm struct {
	Workload string
	Policy   resilience.Policy
	// AbuseEvents and LegitEvents size the workload.
	AbuseEvents int
	LegitEvents int
	// AbuseDeniedHealthy is the healthy gate's catch count — the protection
	// at stake when the layer flaps.
	AbuseDeniedHealthy int
	// Leaked counts abusive requests admitted during the run that the
	// healthy gate denied.
	Leaked int
	// FalseDenials counts honest requests denied during the run that the
	// healthy gate admitted.
	FalseDenials int
	// Degraded is how many decisions the flapping gate made with the layer
	// unavailable.
	Degraded uint64
	// BreakerOpens is how many times the layer's breaker tripped.
	BreakerOpens uint64
}

// ChaosResult holds every arm of the chaos experiment.
type ChaosResult struct {
	Arms []ChaosArm
}

// Table renders the outage-cost comparison.
func (r ChaosResult) Table() *metrics.Table {
	t := metrics.NewTable("Chaos — defence-layer outages under fail-open vs fail-closed",
		"Workload", "Policy", "Abuse reqs", "Caught healthy", "Leaked", "Legit reqs", "False denials", "Degraded", "Breaker opens")
	for _, a := range r.Arms {
		t.AddRow(a.Workload, a.Policy.String(),
			strconv.Itoa(a.AbuseEvents),
			strconv.Itoa(a.AbuseDeniedHealthy),
			strconv.Itoa(a.Leaked),
			strconv.Itoa(a.LegitEvents),
			strconv.Itoa(a.FalseDenials),
			strconv.FormatUint(a.Degraded, 10),
			strconv.FormatUint(a.BreakerOpens, 10))
	}
	return t
}

// report writes the table and its note lines.
func (r ChaosResult) report(w io.Writer, csv bool) {
	emit(w, r.Table(), csv)
	fmt.Fprintf(w, "fail-open forfeits the layer's catches while it flaps; fail-closed charges honest traffic instead\n")
}

// sample flattens the headline scalars for a replicate sweep.
func (r ChaosResult) sample() runner.Sample {
	var b sample
	for _, a := range r.Arms {
		prefix := a.Workload + ":" + a.Policy.String()
		b.addInt(prefix+"/abuse_denied_healthy", a.AbuseDeniedHealthy)
		b.addInt(prefix+"/leaked", a.Leaked)
		b.addInt(prefix+"/false_denials", a.FalseDenials)
		b.add(prefix+"/degraded", float64(a.Degraded))
		b.add(prefix+"/breaker_opens", float64(a.BreakerOpens))
	}
	return b.s
}

const (
	chaosHorizon = 6 * time.Hour
	// chaosRefHeader carries the booking reference the SMS workload's
	// resource limiter keys on.
	chaosRefHeader = "X-Booking-Ref"
)

// chaosFlap is the outage plan both workloads run under: recurring
// half-hour outages, long enough for the layer's breaker to trip and the
// up-windows long enough for it to recover.
func chaosFlap() faultinject.Schedule {
	return faultinject.Schedule{
		Start:  SimStart.Add(40 * time.Minute),
		Period: 90 * time.Minute,
		Down:   30 * time.Minute,
	}
}

// chaosBreaker sizes the layer breaker for the replay's traffic density
// (about two requests a minute).
func chaosBreaker() resilience.BreakerConfig {
	return resilience.BreakerConfig{
		Window:         10 * time.Minute,
		MinSamples:     5,
		OpenFor:        5 * time.Minute,
		HalfOpenProbes: 2,
	}
}

// chaosWorkload couples an event stream with a gate builder; build is
// called once per arm with that arm's fault injector (nil for the healthy
// baseline) and policy.
type chaosWorkload struct {
	name   string
	layer  httpgate.Layer
	events []chaosEvent
	build  func(clock *simclock.Manual, inj *faultinject.Injector, policy resilience.Policy) *httpgate.Gate
}

// sortChaosEvents orders events by time with a deterministic tiebreak.
func sortChaosEvents(events []chaosEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].at.Before(events[j].at)
	})
}

// seatspinWorkload is the Case A shape: one attacker holding seats around
// the clock, rotating to a fresh fingerprint every hour, against a
// blocklist the defender updates ten minutes into each rotation. Honest
// travellers browse the same path at human rates. The flapping layer is
// the blocklist lookup.
func seatspinWorkload(seed uint64) chaosWorkload {
	rng := simrand.New(seed).Derive("chaos/seatspin")
	const (
		rotation = time.Hour
		lag      = 10 * time.Minute
		humans   = 40
	)

	var events []chaosEvent
	// blockAt maps each attacker print's blocklist key to the time the
	// defender's rule lands.
	blockAt := make(map[string]time.Time)
	for i := 0; time.Duration(i)*time.Minute < chaosHorizon; i++ {
		at := SimStart.Add(time.Duration(i) * time.Minute)
		rot := int(at.Sub(SimStart) / rotation)
		fp := uint64(0xA000 + rot)
		blockAt["fp:"+strconv.FormatUint(fp, 16)] = SimStart.Add(time.Duration(rot)*rotation + lag)
		events = append(events, chaosEvent{
			at: at, path: "/booking/hold", ip: "10.0." + strconv.Itoa(rot) + ".1",
			fp: fp, abusive: true,
		})
	}
	for h := range humans {
		n := rng.IntBetween(4, 8)
		for range n {
			at := SimStart.Add(time.Duration(rng.Int63() % int64(chaosHorizon)))
			events = append(events, chaosEvent{
				at: at, path: "/booking/hold", ip: "192.0.2." + strconv.Itoa(h),
				sid: "traveller-" + strconv.Itoa(h), fp: uint64(0xB000 + h),
			})
		}
	}
	sortChaosEvents(events)

	lookup := func(key string, now time.Time) (bool, error) {
		act, ok := blockAt[key]
		return ok && !now.Before(act), nil
	}
	return chaosWorkload{
		name:   "seatspin",
		layer:  httpgate.LayerBlocklist,
		events: events,
		build: func(clock *simclock.Manual, inj *faultinject.Injector, policy resilience.Policy) *httpgate.Gate {
			check := lookup
			if inj != nil {
				check = inj.WrapErr(lookup)
			}
			return httpgate.New(httpgate.Config{
				Clock:         clock,
				BlocklistFunc: check,
				Resilience:    &httpgate.ResilienceConfig{Breaker: chaosBreaker(), Blocklist: policy},
			})
		},
	}
}

// smspumpWorkload is the Table I shape: a pumper requesting boarding-pass
// SMS deliveries to a handful of premium-range numbers far above any
// honest cadence, against a per-resource (per booking reference) limit.
// Honest passengers request their own reference once or twice. The
// flapping layer is the resource limiter.
func smspumpWorkload(seed uint64) chaosWorkload {
	rng := simrand.New(seed).Derive("chaos/smspump")
	const (
		interval = 90 * time.Second
		numbers  = 4
		humans   = 60
	)

	var events []chaosEvent
	for i := 0; time.Duration(i)*interval < chaosHorizon; i++ {
		events = append(events, chaosEvent{
			at:   SimStart.Add(time.Duration(i) * interval),
			path: "/checkin/boardingpass/sms", ip: "203.0.113.99",
			fp: 0xC0DE, resource: "prem-" + strconv.Itoa(i%numbers), abusive: true,
		})
	}
	for h := range humans {
		n := rng.IntBetween(1, 2)
		for range n {
			at := SimStart.Add(time.Duration(rng.Int63() % int64(chaosHorizon)))
			events = append(events, chaosEvent{
				at: at, path: "/checkin/boardingpass/sms", ip: "198.51.100." + strconv.Itoa(h),
				sid: "passenger-" + strconv.Itoa(h), fp: uint64(0xD000 + h),
				resource: "pnr-" + strconv.Itoa(h),
			})
		}
	}
	sortChaosEvents(events)

	return chaosWorkload{
		name:   "smspump",
		layer:  httpgate.LayerResource,
		events: events,
		build: func(clock *simclock.Manual, inj *faultinject.Injector, policy resilience.Policy) *httpgate.Gate {
			lim := signal.NewLimiter(signal.LimiterConfig{Window: time.Hour, Limit: 3})
			check := func(key string, now time.Time) (bool, error) {
				return lim.Allow(key, now), nil
			}
			if inj != nil {
				check = inj.WrapErr(check)
			}
			return httpgate.New(httpgate.Config{
				Clock:         clock,
				ResourceKey:   func(r *http.Request) string { return r.Header.Get(chaosRefHeader) },
				ResourceCheck: check,
				Resilience:    &httpgate.ResilienceConfig{Breaker: chaosBreaker(), Resource: policy},
			})
		},
	}
}

// chaosResponse is a minimal ResponseWriter for the replay; only the
// status code matters.
type chaosResponse struct {
	header http.Header
	code   int
}

func (c *chaosResponse) Header() http.Header {
	if c.header == nil {
		c.header = make(http.Header)
	}
	return c.header
}
func (c *chaosResponse) Write(b []byte) (int, error) { return len(b), nil }
func (c *chaosResponse) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
}

// chaosRequest materialises one event as an HTTP request.
func chaosRequest(ev chaosEvent) *http.Request {
	r := &http.Request{
		Method:     http.MethodPost,
		URL:        &url.URL{Path: ev.path},
		Header:     make(http.Header),
		Host:       "app.example",
		RemoteAddr: ev.ip + ":443",
	}
	r.Header.Set(httpgate.FingerprintHeader, strconv.FormatUint(ev.fp, 16))
	if ev.sid != "" {
		r.AddCookie(&http.Cookie{Name: httpgate.ClientCookie, Value: ev.sid})
	}
	if ev.resource != "" {
		r.Header.Set(chaosRefHeader, ev.resource)
	}
	return r
}

// replayChaos drives the event stream through one gate serially on a
// virtual clock, returning the per-event admit verdicts.
func replayChaos(events []chaosEvent, clock *simclock.Manual, g *httpgate.Gate) []bool {
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	verdicts := make([]bool, len(events))
	for i, ev := range events {
		clock.SetAt(ev.at)
		var w chaosResponse
		h.ServeHTTP(&w, chaosRequest(ev))
		verdicts[i] = w.code == http.StatusOK
	}
	return verdicts
}

// RunChaos replays both workloads under both fail policies and scores each
// outage against the healthy baseline.
func RunChaos(seed uint64) (ChaosResult, error) {
	var res ChaosResult
	for _, wl := range []chaosWorkload{seatspinWorkload(seed), smspumpWorkload(seed)} {
		healthyClock := simclock.NewManual(SimStart)
		healthy := replayChaos(wl.events, healthyClock, wl.build(healthyClock, nil, resilience.FailOpen))

		for _, policy := range []resilience.Policy{resilience.FailOpen, resilience.FailClosed} {
			clock := simclock.NewManual(SimStart)
			inj := faultinject.New(faultinject.Config{Schedule: chaosFlap()})
			g := wl.build(clock, inj, policy)
			verdicts := replayChaos(wl.events, clock, g)

			col := g.Collector()
			degraded, _ := obs.Value(col, httpgate.MetricDegraded)
			opens, _ := obs.Value(col, httpgate.MetricBreakerOpens,
				obs.Label{Name: "layer", Value: wl.layer.String()})
			arm := ChaosArm{
				Workload:     wl.name,
				Policy:       policy,
				Degraded:     uint64(degraded),
				BreakerOpens: uint64(opens),
			}
			for i, ev := range wl.events {
				if ev.abusive {
					arm.AbuseEvents++
					if !healthy[i] {
						arm.AbuseDeniedHealthy++
						if verdicts[i] {
							arm.Leaked++
						}
					}
				} else {
					arm.LegitEvents++
					if healthy[i] && !verdicts[i] {
						arm.FalseDenials++
					}
				}
			}
			res.Arms = append(res.Arms, arm)
		}
	}
	return res, nil
}
