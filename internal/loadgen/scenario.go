// Package loadgen is the networked load-generation and adaptive-attacker
// replay subsystem: it drives an httpgate-backed net/http server over real
// sockets with mixed traffic — honest background load, Case A
// seat-spinning bursts, Table I SMS-pumping fan-out — described as seeded
// scenario structs with arrival-rate schedules.
//
// The paper's central measurement is interactive: Airline A's attackers
// rotated fingerprints within an average of 5.3 hours of each new blocking
// rule, and the Table I SMS surge was only caught by a path-level rate
// limit under live traffic. loadgen closes that loop end to end. Attacker
// clients observe gate responses (the X-Denied-By reason, the
// X-Gate-Degraded header) and react: a blocklist denial means a rule now
// names their fingerprint, so after a reaction delay they present a
// rotated identity drawn through internal/fingerprint — the rule→rotation
// arms race, reproduced over sockets instead of an offline batch replay.
//
// Determinism is the backbone. A Scenario compiles into a Plan — the full
// arrival schedule, with every request's intended start time, client and
// path pre-assigned from the seed — before any traffic flows, so the
// schedule is bit-identical per seed regardless of worker count, and a
// virtual-clock run replays it with reproducible timestamps. Latency is
// recorded coordinated-omission-safe: each request is measured from its
// *intended* start, so a backed-up server cannot hide queueing delay by
// slowing the generator down.
package loadgen

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"funabuse/internal/simrand"
)

// ClassKind names the behaviour of one traffic class.
type ClassKind int

// Traffic class kinds.
const (
	// Honest clients keep one consistent organic fingerprint, a stable
	// session and a stable address for the whole run, and never react to
	// denials.
	Honest ClassKind = iota
	// SeatSpin bots replay the Case A shape: bursts against the booking
	// path from spoofed fingerprints, rotating identity after each new
	// blocking rule catches them.
	SeatSpin
	// SMSPump bots replay the Table I shape: high-rate fan-out across
	// many booking references on the SMS path, with the same reactive
	// rotation behaviour.
	SMSPump
	// LowAndSlow bots model the distributed shape the paper warns
	// defenders about: a steady, individually modest per-fingerprint rate
	// whose requests a dumb load balancer spreads across a whole gate
	// fleet, so no single node sees a surge while the fleet-wide volume
	// is plainly abusive. Unlike the burst kinds their playbook is
	// patience: a fixed identity held for the whole run, betting on never
	// tripping a per-node threshold rather than on out-rotating rules
	// (give the class a ReactionMean to make them rotate too).
	LowAndSlow
	// Syndicate bots model a coordinated ring: the whole class shares one
	// pool of spoofed fingerprints, proxy exits and booking references,
	// and every request draws a fresh combination from it. No single
	// identity ever runs hot — each fingerprint's rate stays under any
	// sane per-identity threshold — so volume defences see nothing, while
	// the shared resources braid every member into one linkage component
	// an entity graph can flag. Syndicates hold the pool for the whole
	// run; they evade by dilution, not rotation.
	Syndicate
)

// String names the kind for labels and reports.
func (k ClassKind) String() string {
	switch k {
	case Honest:
		return "honest"
	case SeatSpin:
		return "seatspin"
	case SMSPump:
		return "smspump"
	case LowAndSlow:
		return "lowslow"
	case Syndicate:
		return "syndicate"
	default:
		return "unknown"
	}
}

// Abusive reports whether the class models attacker traffic.
func (k ClassKind) Abusive() bool { return k != Honest }

// Phase is one segment of a class's arrival-rate schedule: arrivals come
// as a Poisson process at Rate for Dur, then the next phase begins. A
// zero-rate phase is a quiet gap.
type Phase struct {
	Dur  time.Duration
	Rate float64 // mean arrivals per second
}

// Class describes one traffic class: who sends (a fleet of Clients), what
// they hit (Paths, optionally fanned out across Resources), and when
// (Phases).
type Class struct {
	Name string
	Kind ClassKind
	// Clients is the fleet size; every arrival is pre-assigned to one
	// client from the seed.
	Clients int
	// Paths are the request targets, drawn per arrival.
	Paths []string
	// Resources, when positive, fans requests out across this many
	// distinct resource identities (booking references for the SMS path);
	// each arrival draws one and sends it as the pnr query parameter.
	Resources int
	// ResourceBase offsets the drawn resource index, giving the class its
	// own disjoint reference space — honest traffic books the inventory it
	// was issued while an enumerating attacker walks a separate range the
	// defender can seed with decoys. Zero keeps the historical [0,
	// Resources) space.
	ResourceBase int
	// Econ, when non-nil on an abusive class, prices the attack: clients
	// pay per account registration, per request and per burned account,
	// and stop issuing when their budget is spent. Ignored for honest
	// classes.
	Econ *EconModel
	// Phases is the arrival-rate schedule, played in order.
	Phases []Phase
	// ReactionMean is the mean delay between an abusive client noticing a
	// blocking rule (its first blocklist denial) and presenting a rotated
	// fingerprint. The paper's measured mean is 5.3 h; compressed runs
	// use seconds. Zero disables rotation. Ignored for honest classes.
	ReactionMean time.Duration
}

// Scenario is a seeded description of a mixed-traffic run.
type Scenario struct {
	Seed    uint64
	Start   time.Time
	Classes []Class
}

// Validate reports the first structural problem with the scenario.
func (sc Scenario) Validate() error {
	if len(sc.Classes) == 0 {
		return fmt.Errorf("loadgen: scenario has no classes")
	}
	for i, c := range sc.Classes {
		switch {
		case c.Name == "":
			return fmt.Errorf("loadgen: class %d has no name", i)
		case c.Clients <= 0:
			return fmt.Errorf("loadgen: class %q has no clients", c.Name)
		case len(c.Paths) == 0:
			return fmt.Errorf("loadgen: class %q has no paths", c.Name)
		case len(c.Phases) == 0:
			return fmt.Errorf("loadgen: class %q has no phases", c.Name)
		}
		if c.ResourceBase < 0 {
			return fmt.Errorf("loadgen: class %q has a negative resource base", c.Name)
		}
		for _, ph := range c.Phases {
			if ph.Dur < 0 || ph.Rate < 0 {
				return fmt.Errorf("loadgen: class %q has a negative phase", c.Name)
			}
		}
	}
	return nil
}

// Arrival is one pre-scheduled request: its intended start time and the
// class, client, path and resource assigned from the seed.
type Arrival struct {
	At    time.Time
	Class int
	// Client indexes the class's fleet.
	Client int
	Path   string
	// Resource is the drawn resource index, or -1 when the class has no
	// resource fan-out.
	Resource int
	// Seq is the per-class sequence number, the stable tie-break for
	// simultaneous arrivals.
	Seq int
}

// Plan is a compiled scenario: the complete, seed-deterministic arrival
// schedule. Building the plan before any traffic flows is what makes the
// schedule independent of worker count and wall-clock jitter.
type Plan struct {
	Scenario Scenario
	Arrivals []Arrival
}

// BuildPlan compiles the scenario into its arrival schedule. Each class
// draws from its own derived stream, so adding a class never perturbs the
// others, and the merged schedule is bit-identical per seed.
func BuildPlan(sc Scenario) (*Plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	root := simrand.New(sc.Seed)
	var arrivals []Arrival
	for ci := range sc.Classes {
		c := &sc.Classes[ci]
		rng := root.Derive("loadgen:sched:" + c.Name)
		phaseStart := sc.Start
		seq := 0
		for _, ph := range c.Phases {
			phaseEnd := phaseStart.Add(ph.Dur)
			if ph.Rate > 0 {
				at := phaseStart
				for {
					gap := time.Duration(rng.Exp(float64(time.Second) / ph.Rate))
					at = at.Add(gap)
					if !at.Before(phaseEnd) {
						break
					}
					a := Arrival{
						At:       at,
						Class:    ci,
						Client:   rng.Intn(c.Clients),
						Path:     c.Paths[rng.Intn(len(c.Paths))],
						Resource: -1,
						Seq:      seq,
					}
					if c.Resources > 0 {
						a.Resource = c.ResourceBase + rng.Intn(c.Resources)
					}
					arrivals = append(arrivals, a)
					seq++
				}
			}
			phaseStart = phaseEnd
		}
	}
	sort.SliceStable(arrivals, func(i, j int) bool {
		ai, aj := arrivals[i], arrivals[j]
		if !ai.At.Equal(aj.At) {
			return ai.At.Before(aj.At)
		}
		if ai.Class != aj.Class {
			return ai.Class < aj.Class
		}
		return ai.Seq < aj.Seq
	})
	return &Plan{Scenario: sc, Arrivals: arrivals}, nil
}

// ResourceRef renders resource index i as the booking reference sent in
// the pnr query parameter — shared by the runner, decoy seeding and
// report joins so they agree on the reference namespace.
func ResourceRef(i int) string { return fmt.Sprintf("PNR%05d", i) }

// ClassRefs lists every booking reference class ci can draw — the
// enumeration surface decoy seeding covers for that class.
func (sc Scenario) ClassRefs(ci int) []string {
	c := sc.Classes[ci]
	refs := make([]string, c.Resources)
	for i := range refs {
		refs[i] = ResourceRef(c.ResourceBase + i)
	}
	return refs
}

// Duration is the span from the scenario start to the last arrival.
func (p *Plan) Duration() time.Duration {
	if len(p.Arrivals) == 0 {
		return 0
	}
	return p.Arrivals[len(p.Arrivals)-1].At.Sub(p.Scenario.Start)
}

// Hash digests the full schedule — every arrival's time, class, client,
// path and resource — into one value. Two plans with the same hash carry
// the bit-identical schedule the determinism golden test asserts.
func (p *Plan) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	word(uint64(len(p.Arrivals)))
	for _, a := range p.Arrivals {
		word(uint64(a.At.UnixNano()))
		word(uint64(a.Class))
		word(uint64(a.Client))
		word(uint64(a.Resource))
		word(uint64(len(a.Path)))
		_, _ = h.Write([]byte(a.Path))
	}
	return h.Sum64()
}
