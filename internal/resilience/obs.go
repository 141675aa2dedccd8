package resilience

import (
	"funabuse/internal/obs"
)

// BreakerStats is a breaker's observability snapshot on the obs contract.
type BreakerStats struct {
	// State is the breaker's position (Closed/Open/HalfOpen) as of the
	// last Allow; an expired cooldown is not acted on by the snapshot.
	State State
	// Opens counts trips to open, Transitions all state changes, and
	// ShortCircuits the calls Allow rejected.
	Opens, Transitions, ShortCircuits uint64
}

// Stats snapshots the breaker's counters and state.
func (b *Breaker) Stats() BreakerStats {
	return BreakerStats{
		State:         b.State(),
		Opens:         b.Opens(),
		Transitions:   b.Transitions(),
		ShortCircuits: b.ShortCircuits(),
	}
}

// Collector exposes the breaker on the obs snapshot contract, labelled
// with the breaker's name so one registry can scrape a fleet of them.
// The state gauge encodes Closed=0, Open=1, HalfOpen=2. This supersedes
// polling State/Opens/Transitions/ShortCircuits by hand; those accessors
// remain as thin adapters.
func (b *Breaker) Collector(name string) obs.Collector {
	labels := []obs.Label{{Name: "breaker", Value: name}}
	return obs.CollectorFunc(func(dst []obs.Sample) []obs.Sample {
		st := b.Stats()
		return append(dst,
			obs.Sample{Name: "breaker_state", Labels: labels, Value: float64(st.State)},
			obs.Sample{Name: "breaker_opens_total", Labels: labels, Value: float64(st.Opens)},
			obs.Sample{Name: "breaker_transitions_total", Labels: labels, Value: float64(st.Transitions)},
			obs.Sample{Name: "breaker_short_circuits_total", Labels: labels, Value: float64(st.ShortCircuits)},
		)
	})
}
