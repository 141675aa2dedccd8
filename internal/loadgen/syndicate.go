package loadgen

import (
	"slices"
	"strconv"
	"sync"
	"time"

	"funabuse/internal/entitygraph"
	"funabuse/internal/httpgate"
)

// SyndicateScenario is the coordinated-ring shape: honest background
// browsing plus a small syndicate whose members draw every request's
// fingerprint and exit address from one shared pool and fan out across a
// shared set of booking references. The class rate is tuned so each
// pooled fingerprint's in-window volume stays well under any per-identity
// rule threshold — volume defences leak the attack essentially whole —
// while the pool's co-occurrence braids fingerprints, addresses and
// booking references into one linkage component an entity graph flags
// within seconds.
func SyndicateScenario(seed uint64, start time.Time) Scenario {
	return Scenario{
		Seed:  seed,
		Start: start,
		Classes: []Class{
			{
				Name:    "honest",
				Kind:    Honest,
				Clients: 10,
				Paths:   []string{PathSearch, PathHold, PathSMS},
				Phases:  []Phase{{Dur: 60 * time.Second, Rate: 3}},
			},
			{
				Name:      "syndicate",
				Kind:      Syndicate,
				Clients:   8,
				Paths:     []string{PathHold, PathSMS},
				Resources: 12,
				Phases: []Phase{
					{Dur: 5 * time.Second, Rate: 0},
					{Dur: 55 * time.Second, Rate: 12},
				},
			},
		},
	}
}

// GraphFeederConfig assembles a GraphFeeder.
type GraphFeederConfig struct {
	// Graph receives one observation per watched request.
	Graph *entitygraph.Graph
	// Weak is the per-request weak-signal score fed with each
	// observation; a touch of suspicion per sensitive-path hit, so only
	// sustained co-occurrence accrues to a flag.
	Weak float64
	// Paths restricts observation to these request paths; empty watches
	// all.
	Paths []string
}

// GraphFeeder is the observation half of the entity-linkage defence: a
// gate decision hook that turns each watched request's identities — the
// fingerprint, the client address, the booking reference it touches —
// into one entity-graph observation. The graph does the rest: shared
// resources union the observations into components, and the gate's
// entity layer denies identities whose component crosses the flag
// thresholds. It is driven from the gate's serving goroutines and
// synchronises itself.
type GraphFeeder struct {
	decisionSinks
	graph *entitygraph.Graph
	weak  float64

	mu   sync.Mutex
	buf  []byte    // one observation's keys, back to back
	keys [3][]byte // views into buf, for ObserveBytes
}

// NewGraphFeeder returns a feeder observing into cfg.Graph.
func NewGraphFeeder(cfg GraphFeederConfig) *GraphFeeder {
	f := &GraphFeeder{graph: cfg.Graph, weak: cfg.Weak}
	f.decisionSinks = decisionSinks{{cfg.Paths, len(cfg.Paths) == 0, f.feed}}
	return f
}

// feed is the feeder's decision sink. Every watched-path request is
// evidence, whatever its verdict: a denied request still demonstrates the
// co-occurrence of its identities, and observing it keeps the component's
// score honest.
func (f *GraphFeeder) feed(watched bool, ref string, info httpgate.ClientInfo, _ string) {
	if !watched {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Grown to the observation's full length first, so no append below
	// moves the buffer from under the views already cut.
	buf := slices.Grow(f.buf[:0], 3*len("fp:")+16+len(info.IP)+len(ref))
	keys := f.keys[:0]
	if info.HasFingerprint {
		buf = strconv.AppendUint(append(buf, "fp:"...), info.Fingerprint, 16)
		keys = append(keys, buf)
	}
	if info.IP != "" {
		n := len(buf)
		buf = append(append(buf, "ip:"...), info.IP...)
		keys = append(keys, buf[n:])
	}
	if ref != "" {
		n := len(buf)
		buf = append(append(buf, "bk:"...), ref...)
		keys = append(keys, buf[n:])
	}
	f.buf = buf
	if len(keys) >= 2 {
		f.graph.ObserveBytes(keys, f.weak)
	}
}
