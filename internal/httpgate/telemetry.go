package httpgate

import (
	"time"

	"funabuse/internal/obs"
)

// Gate metric names, exported so collector consumers can point-read them
// with obs.Value. The per-layer families carry a layer label; the denial
// family carries the ReasonHeader value as its reason label.
const (
	MetricAdmitted       = "gate_admitted_total"
	MetricDenied         = "gate_denied_total"
	MetricDegraded       = "gate_degraded_decisions_total"
	MetricDenials        = "gate_denials_total"
	MetricLatency        = "gate_decision_seconds"
	MetricLayerErrors    = "gate_layer_errors_total"
	MetricLayerPanics    = "gate_layer_panics_total"
	MetricLayerDegraded  = "gate_layer_degraded_total"
	MetricBreakerState   = "gate_layer_breaker_state"
	MetricBreakerOpens   = "gate_layer_breaker_opens_total"
	MetricBreakerShorted = "gate_layer_breaker_short_circuits_total"
	// MetricAccountTier counts account-layer evaluations by the resolved
	// loyalty tier (tier label); only registered when the account layer
	// is enabled.
	MetricAccountTier = "gate_account_tier_total"
)

// gateTelemetry holds the gate's live metric handles, pre-resolved at
// construction so the serving path touches only atomics. The denial
// counters live in a table indexed by reasonIndex — resolving a reason to
// its counter is a scan of the layer table's reasons and a slice load,
// with no map hash on the denial path. Every counter exists
// (at zero) from the first scrape.
type gateTelemetry struct {
	latency *obs.Histogram
	denials []*obs.Counter
	tiers   [numAccountTiers]*obs.Counter
	traces  *obs.TraceRing
}

// initTelemetry wires the gate onto a registry (and optionally a trace
// ring) and registers the gate's collector. reg may be nil when only
// tracing is enabled.
func (g *Gate) initTelemetry(reg *obs.Registry, traces *obs.TraceRing) {
	if reg == nil && traces == nil {
		return
	}
	tel := &gateTelemetry{traces: traces, denials: make([]*obs.Counter, len(reasons))}
	if reg != nil {
		base := g.cfg.telLabels
		reg.Help(MetricLatency, "Gate decision latency in seconds.")
		reg.Help(MetricDenials, "Denied requests by denial reason.")
		tel.latency = reg.Histogram(MetricLatency, nil, base...)
		for i, reason := range reasons {
			tel.denials[i] = reg.Counter(MetricDenials, withLabel(base, "reason", reason)...)
		}
		if g.accounts != nil {
			reg.Help(MetricAccountTier, "Account-layer evaluations by resolved loyalty tier.")
			for t, name := range accountTierNames {
				tel.tiers[t] = reg.Counter(MetricAccountTier, withLabel(base, "tier", name)...)
			}
		}
		reg.Register(g.Collector())
	}
	g.tel = tel
}

// withLabel returns base plus one more label, in a slice of its own.
func withLabel(base []obs.Label, name, value string) []obs.Label {
	return append(append(make([]obs.Label, 0, len(base)+1), base...), obs.Label{Name: name, Value: value})
}

// observeDecision records one decision's telemetry: latency, the denial
// reason counter, and a trace span. It is allocation-free — handles are
// pre-resolved and the span is copied into a preallocated ring slot — so
// the instrumented hot path costs exactly what the bare one does.
func (g *Gate) observeDecision(start time.Time, path, reason string, mask uint8) {
	tel := g.tel
	if tel == nil {
		return
	}
	dur := g.clock.Now().Sub(start)
	if tel.latency != nil {
		tel.latency.Observe(dur.Seconds())
	}
	verdict := obs.VerdictAdmit
	if reason != "" {
		verdict = reason
		if i := reasonIndex(reason); i >= 0 && tel.denials[i] != nil {
			tel.denials[i].Inc()
		}
	}
	if tel.traces == nil {
		return
	}
	tel.traces.Record(obs.Span{
		Start:    start,
		Dur:      dur,
		Path:     path,
		Verdict:  verdict,
		Degraded: degradedNames[mask],
	})
}

// Collector exposes the gate's decision and per-layer resilience counters
// as the obs snapshot contract — the gate's only stats surface. Point
// reads go through obs.Value; full scrapes through an obs.Registry.
// Every sample carries the gate's WithTelemetryLabels base labels, so the
// collectors of a gate fleet compose on one registry.
func (g *Gate) Collector() obs.Collector {
	base := g.cfg.telLabels
	layerLabels := make([][]obs.Label, numLayers)
	for l := LayerBlocklist; l < numLayers; l++ {
		layerLabels[l] = withLabel(base, "layer", l.String())
	}
	return obs.CollectorFunc(func(dst []obs.Sample) []obs.Sample {
		dst = append(dst,
			obs.Sample{Name: MetricAdmitted, Labels: base, Value: float64(g.admitted.Load())},
			obs.Sample{Name: MetricDenied, Labels: base, Value: float64(g.denied.Load())},
			obs.Sample{Name: MetricDegraded, Labels: base, Value: float64(g.degraded.Load())},
		)
		for l := LayerBlocklist; l < numLayers; l++ {
			gd := &g.guards[l]
			lbl := layerLabels[l]
			dst = append(dst,
				obs.Sample{Name: MetricLayerErrors, Labels: lbl, Value: float64(gd.errors.Load())},
				obs.Sample{Name: MetricLayerPanics, Labels: lbl, Value: float64(gd.panics.Load())},
				obs.Sample{Name: MetricLayerDegraded, Labels: lbl, Value: float64(gd.degraded.Load())},
			)
			if b := gd.breaker; b != nil {
				dst = append(dst,
					obs.Sample{Name: MetricBreakerState, Labels: lbl, Value: float64(b.State())},
					obs.Sample{Name: MetricBreakerOpens, Labels: lbl, Value: float64(b.Opens())},
					obs.Sample{Name: MetricBreakerShorted, Labels: lbl, Value: float64(b.ShortCircuits())},
				)
			}
		}
		return dst
	})
}
