package main

import (
	"fmt"
	"net/http"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/entitygraph"
	"funabuse/internal/httpgate"
	"funabuse/internal/loadgen"
	"funabuse/internal/mitigate"
	"funabuse/internal/obs"
	"funabuse/internal/simclock"
)

// planStart anchors every virtual schedule; replays shift it by whole
// periods, so bucket rings stay aligned from one replay to the next.
var planStart = time.Date(2025, 1, 6, 0, 0, 0, 0, time.UTC)

// Traffic classes of the gate workloads, in scenario order.
const (
	classSearch = iota // honest browsing, no resource
	classHold          // honest bookings
	classSMS           // honest boarding-pass SMS, own booking references
	classMember        // pre-registered loyalty members on the tier-gated path
	classGuest         // honest guests trying the tier-gated path (denied by design)
	classSpin          // seat-spinning bots sharing a small proxy pool
	classPump          // SMS-pumping bots fanning out over few references
	numGateClasses
)

const (
	spinProxyPool  = 8    // exits the seat-spin ring shares
	fillerRules    = 5000 // blocklist rules naming nobody in the plan
	honestRefs     = 5000 // booking references honest SMS traffic draws from
	pumpRefs       = 300  // references the pump enumerates
	pumpRefBase    = 100000
	memberBookings = 30
	churnBudget    = 4096 // entity-graph nodes and accounts under gate_churn
)

// gateScenario is the mixed-traffic shape of the three gate workloads:
// about two thirds honest arrivals on four paths and one third abusive
// (seat-spin bursts, a steady SMS pump), 1 333 arrivals per virtual second.
func gateScenario(seed uint64, dur time.Duration) loadgen.Scenario {
	steady := func(rate float64) []loadgen.Phase { return []loadgen.Phase{{Dur: dur, Rate: rate}} }
	// Seat-spin bots burst: half the time at twice the mean rate, in cycles
	// of twenty seconds (one cycle for a shorter plan).
	var bursts []loadgen.Phase
	half := min(dur, 20*time.Second) / 2
	for left := dur; left > 0; left -= 2 * half {
		on := min(left, half)
		bursts = append(bursts, loadgen.Phase{Dur: on, Rate: 600})
		if off := min(left-on, half); off > 0 {
			bursts = append(bursts, loadgen.Phase{Dur: off, Rate: 0})
		}
	}
	return loadgen.Scenario{
		Seed:  seed,
		Start: planStart,
		Classes: []loadgen.Class{
			classSearch: {Name: "honest-search", Kind: loadgen.Honest, Clients: 1200,
				Paths: []string{loadgen.PathSearch}, Phases: steady(500)},
			classHold: {Name: "honest-hold", Kind: loadgen.Honest, Clients: 500,
				Paths: []string{loadgen.PathHold}, Phases: steady(200)},
			classSMS: {Name: "honest-sms", Kind: loadgen.Honest, Clients: 300,
				Paths: []string{loadgen.PathSMS}, Resources: honestRefs, Phases: steady(100)},
			classMember: {Name: "honest-member", Kind: loadgen.Honest, Clients: 100,
				Paths: []string{loadgen.PathSeatMap}, Phases: steady(50)},
			classGuest: {Name: "honest-guest", Kind: loadgen.Honest, Clients: 50,
				Paths: []string{loadgen.PathSeatMap}, Phases: steady(3)},
			classSpin: {Name: "seat-spin", Kind: loadgen.SeatSpin, Clients: 60,
				Paths: []string{loadgen.PathHold, loadgen.PathSeatMap}, Phases: bursts},
			classPump: {Name: "sms-pump", Kind: loadgen.SMSPump, Clients: 30,
				Paths: []string{loadgen.PathSMS}, Resources: pumpRefs, ResourceBase: pumpRefBase,
				Phases: steady(180)},
		},
	}
}

// preBlocked reports whether the defender already holds a fingerprint rule
// for this client: every second bot of either abusive class.
func preBlocked(class, client int) bool {
	return (class == classSpin || class == classPump) && client%2 == 0
}

// gateInputs is a compiled gate workload: the schedule and, per arrival,
// the decision input the harness hands to the gate.
type gateInputs struct {
	seed   uint64
	churn  bool
	plan   *loadgen.Plan
	period time.Duration // replay k runs at planStart + k*period
	reqs   []httpgate.Request
	ids    []identity // per arrival, what reqs[i].Info was built from
}

// buildGateInputs compiles the scenario and pre-builds every decision
// input. The *http.Request is shared by all arrivals on one (path,
// reference) pair — the gate only reads it — so a 400k-arrival plan costs
// tens of megabytes, not hundreds. With churn every arrival presents a
// fingerprint, address and session nobody has seen.
func buildGateInputs(seed uint64, dur time.Duration, churn bool) (*gateInputs, error) {
	plan, err := loadgen.BuildPlan(gateScenario(seed, dur))
	if err != nil {
		return nil, err
	}
	in := &gateInputs{
		seed:  seed,
		churn: churn,
		plan:  plan,
		// A whole number of minutes keeps every limiter's bucket ring aligned
		// from one replay to the next, and the idle minute at the end
		// outlasts every window, so each replay starts from expired windows
		// and the verdict counts repeat exactly.
		period: dur.Truncate(time.Minute) + 2*time.Minute,
		reqs:   make([]httpgate.Request, len(plan.Arrivals)),
		ids:    make([]identity, len(plan.Arrivals)),
	}
	shared := make(requestCache)
	for i, a := range plan.Arrivals {
		r, err := shared.get(arrivalTarget(a))
		if err != nil {
			return nil, fmt.Errorf("arrival %d: %w", i, err)
		}
		in.ids[i] = arrivalIdentity(seed, i, a, churn)
		in.reqs[i] = httpgate.Request{R: r, Info: in.ids[i].clientInfo()}
	}
	return in, nil
}

// requestCache holds one *http.Request per request target.
type requestCache map[string]*http.Request

func (c requestCache) get(target string) (*http.Request, error) {
	if r := c[target]; r != nil {
		return r, nil
	}
	r, err := http.NewRequest(http.MethodGet, "http://bench"+target, nil)
	if err != nil {
		return nil, err
	}
	c[target] = r
	return r, nil
}

// clientInfo is the attribution the gate would extract from id's headers.
func (id identity) clientInfo() httpgate.ClientInfo {
	return httpgate.ClientInfo{IP: id.IP, Fingerprint: id.FP, HasFingerprint: true, ClientKey: id.Session}
}

// arrivalTarget is the request target (path and query) of one arrival.
func arrivalTarget(a loadgen.Arrival) string {
	if a.Resource < 0 {
		return a.Path
	}
	return a.Path + "?pnr=" + loadgen.ResourceRef(a.Resource)
}

// arrivalIdentity is the seeded identity mapping: a pure function of the
// seed and the arrival, so every replay and every run presents the same
// clients.
func arrivalIdentity(seed uint64, i int, a loadgen.Arrival, churn bool) identity {
	if churn {
		return identityFor(seed, freshID(i))
	}
	stable := identityFor(seed, stableID(a.Class, a.Client))
	if a.Class == classSpin {
		// The ring rotates through a shared exit pool: this is what braids
		// its fingerprints into one entity-graph component.
		stable.IP = ipv4(0xCB007100 | uint32((a.Client+a.Seq)%spinProxyPool))
	}
	return stable
}

// gateStack is the full defence stack of the gate workloads with the
// handles the probes and checks read.
type gateStack struct {
	cfg      loadgen.TargetConfig
	gate     *httpgate.Gate
	blocks   *mitigate.BlockList
	graph    *entitygraph.Graph
	accounts *account.Store
	registry *obs.Registry
	traces   *obs.TraceRing
}

// gateLimits selects how tight the rate layers are. The in-process
// workloads run on a virtual clock with limits that bite; the socket
// workload runs in real time, where a verdict must stay a pure function of
// the identity, so its limits are far above anything the load reaches (the
// layers still do their work on every request).
type gateLimits int

const (
	limitsBite gateLimits = iota
	limitsIdle
)

// newGateConfig assembles the TargetConfig shared by gate_direct,
// gate_churn and gate_socket: blocklist, entity layer, account layer, the
// three rate limiters, telemetry and the trace ring.
func newGateConfig(clock simclock.Clock, churn bool, lim gateLimits) (loadgen.TargetConfig, *gateStack) {
	gcfg := entitygraph.Config{}
	acfg := account.Config{}
	if churn {
		// Budgets below what one replay inserts (about 5.5k graph nodes,
		// 6.6k accounts): eviction runs all the time, and an identity is
		// gone when the next replay presents it again.
		gcfg.MaxNodes = churnBudget
		acfg.MaxAccounts = churnBudget
	}
	st := &gateStack{
		graph:    entitygraph.New(gcfg),
		accounts: account.NewStore(acfg),
		registry: obs.NewRegistry(),
		traces:   obs.NewTraceRing(4096),
	}
	cfg := loadgen.TargetConfig{
		Clock:               clock,
		Accounts:            st.accounts,
		AccountRestricted:   map[string]int{loadgen.PathSeatMap: int(account.Member)},
		AccountBaseLimit:    20,
		AccountWindow:       10 * time.Second,
		AccountBookingPaths: []string{loadgen.PathHold},
		EntityGraph:         st.graph,
		EntityPaths:         []string{loadgen.PathHold, loadgen.PathSeatMap},
		EntityWeak:          0.5,
		PathLimit:           100_000,
		PathWindow:          10 * time.Second,
		ProfileLimit:        30,
		ProfileWindow:       10 * time.Second,
		ResourceLimit:       5,
		ResourceWindow:      time.Minute,
		Telemetry:           st.registry,
		Traces:              st.traces,
	}
	if lim == limitsIdle {
		cfg.AccountBaseLimit = 1_000_000
		cfg.ProfileLimit = 1_000_000
		cfg.ResourceLimit = 1_000_000
		cfg.PathLimit = 100_000_000
	}
	st.cfg = cfg
	return cfg, st
}

// seedDefender loads what the defender knows before traffic starts: the
// loyalty members' history and the fingerprint rules (the pre-blocked bots
// plus filler rules, so the blocklist is probed at a realistic size). With
// blockAll every bot is pre-blocked, not every second one.
func (st *gateStack) seedDefender(seed uint64, now time.Time, blockAll bool) {
	sc := gateScenario(seed, time.Second)
	for c := range sc.Classes[classMember].Clients {
		id := identityFor(seed, stableID(classMember, c))
		st.accounts.Register(id.Session, now.AddDate(-1, 0, 0), memberBookings, now)
	}
	for _, class := range []int{classSpin, classPump} {
		for c := range sc.Classes[class].Clients {
			if blockAll || preBlocked(class, c) {
				st.blocks.Block(fpRule(identityFor(seed, stableID(class, c)).FP), now)
			}
		}
	}
	for i := range fillerRules {
		st.blocks.Block(fpRule(mix(seed, 1<<50|uint64(i))|1), now)
	}
}

// fpRule is the blocklist key naming a fingerprint.
func fpRule(fp uint64) string { return "fp:" + fmt.Sprintf("%x", fp) }
