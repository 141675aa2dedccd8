package httpgate

import "funabuse/internal/obs"

// Option tunes a Gate at construction. Options carry the cross-cutting
// concerns (resilience, telemetry, tracing, the account policy) that
// Config either has no exported field for or takes by pointer; every
// other setting has exactly one way in, its Config field.
type Option func(*Config)

// WithResilience puts every enabled fallible layer behind its own circuit
// breaker with rc's fail policies (overrides Config.Resilience).
func WithResilience(rc ResilienceConfig) Option {
	return func(cfg *Config) { cfg.Resilience = &rc }
}

// WithTelemetry plumbs the gate onto an obs.Registry: the gate's
// Collector (admitted/denied/degraded totals, per-layer error, panic and
// degradation counters, breaker states) is registered for scraping, and
// the gate records a decision-latency histogram and per-reason denial
// counters live. Telemetry adds no allocations to the decision hot path.
func WithTelemetry(reg *obs.Registry) Option {
	return func(cfg *Config) { cfg.telemetry = reg }
}

// WithTelemetryLabels attaches base labels to every metric the gate
// registers or emits: the latency histogram, the per-reason denial
// counters, and every Collector sample. It is how several gates share one
// registry without colliding series — give each gate a distinguishing
// label (e.g. {Name: "node", Value: "3"} per fleet member) and their
// families stay separate while point reads that name only the metric keep
// working.
func WithTelemetryLabels(labels ...obs.Label) Option {
	return func(cfg *Config) { cfg.telLabels = labels }
}

// WithTraces journals every decision into ring as an obs.Span (path,
// verdict, latency, degraded layers). Recording copies into preallocated
// slots and adds no allocations to the decision path.
func WithTraces(ring *obs.TraceRing) Option {
	return func(cfg *Config) { cfg.traces = ring }
}

// WithAccounts enables the account-lifecycle layer under p (overrides
// Config.Accounts): the client key's loyalty tier gates feature access
// (Restricted paths, 403/account-tier) and scales the per-key rate
// allowance (BaseLimit times the tier multiplier, 429/rate-limit-account).
func WithAccounts(p AccountPolicy) Option {
	return func(cfg *Config) { cfg.Accounts = &p }
}
