package httpgate

import (
	"net/http"
	"strings"
	"time"

	"funabuse/internal/resilience"
	"funabuse/internal/signal"
)

// Layer identifies one guarded stage of the pipeline.
type Layer int

// Pipeline layers, in evaluation order.
const (
	LayerBlocklist Layer = iota
	LayerEntity
	LayerAccount
	LayerChallenge
	LayerProfile
	LayerResource
	LayerPath
	LayerDecision
	numLayers
)

// layerRow describes one guarded step of the pipeline. layerTable is the
// only place a step is enumerated: the per-gate step table, Layer.String,
// the denial-reason slots behind Reasons and the telemetry counters, and
// the fail-policy wiring are all derived from it.
type layerRow struct {
	layer Layer
	// name is the Layer.String value (DegradedHeader entry, layer label
	// of the per-layer metric families); rows of one layer share it.
	name string
	// reason and status are the denial's ReasonHeader value and HTTP status.
	reason string
	status int
	// passVal is the verdict that lets the request continue — false for
	// the identity screens ("not listed"), true for challenge and the
	// limiters ("allowed"). It doubles as the FailOpen resolution of an
	// unavailable layer.
	passVal bool
	// needsKey skips the step for requests without a client key: the
	// per-client-key limiters (profile, account rate) do not funnel
	// anonymous traffic into one shared bucket. The account feature gate
	// does NOT skip it — an anonymous client is a guest, and guests do not
	// reach member-only features.
	needsKey bool
	// policy selects the layer's fail policy from a ResilienceConfig; nil
	// for the built-in layers, which cannot fail and so stay FailOpen.
	policy func(*ResilienceConfig) resilience.Policy
	// enabled reports whether g's configuration turns the step on.
	enabled func(*Gate) bool
	// call evaluates the step for one request.
	call func(*Gate, *decisionCtx) (bool, error)
}

var layerTable = [...]layerRow{
	{
		layer: LayerBlocklist, name: "blocklist",
		reason: ReasonBlocklist, status: http.StatusForbidden,
		policy:  func(rc *ResilienceConfig) resilience.Policy { return rc.Blocklist },
		enabled: func(g *Gate) bool { return g.blockProbe != nil || g.cfg.BlocklistFunc != nil },
		call: func(g *Gate, ctx *decisionCtx) (bool, error) {
			return screenIdentities(ctx, g.blockProbe, g.cfg.BlocklistFunc)
		},
	},
	{
		layer: LayerEntity, name: "entity",
		reason: ReasonEntity, status: http.StatusForbidden,
		enabled: func(g *Gate) bool { return g.entityProbe != nil },
		call: func(g *Gate, ctx *decisionCtx) (bool, error) {
			return screenIdentities(ctx, g.entityProbe, nil)
		},
	},
	// The account layer has two denial reasons, so it is two rows under
	// one Layer (one breaker): the per-tier feature gate, then the
	// per-tier rate.
	{
		layer: LayerAccount, name: "account",
		reason: ReasonAccountTier, status: http.StatusForbidden, passVal: true,
		enabled: func(g *Gate) bool { return g.accounts != nil && len(g.accounts.Restricted) > 0 },
		call:    callAccountGate,
	},
	{
		layer: LayerAccount, name: "account",
		reason: ReasonAccountLimit, status: http.StatusTooManyRequests, passVal: true, needsKey: true,
		enabled: func(g *Gate) bool { return g.accounts != nil && g.accounts.BaseLimit > 0 },
		call:    callAccountLimit,
	},
	{
		layer: LayerChallenge, name: "challenge",
		reason: ReasonChallenge, status: http.StatusForbidden, passVal: true,
		policy:  func(rc *ResilienceConfig) resilience.Policy { return rc.Challenge },
		enabled: func(g *Gate) bool { return g.cfg.Challenge != nil },
		call: func(g *Gate, ctx *decisionCtx) (bool, error) {
			return g.cfg.Challenge(ctx.r, ctx.info), nil
		},
	},
	{
		layer: LayerProfile, name: "profile",
		reason: ReasonProfile, status: http.StatusTooManyRequests, passVal: true, needsKey: true,
		enabled: func(g *Gate) bool { return g.profile != nil },
		call: func(g *Gate, ctx *decisionCtx) (bool, error) {
			return allowKeyed(ctx, append(append(ctx.buf[:0], "pf:"...), ctx.info.ClientKey...), g.profile, nil)
		},
	},
	{
		layer: LayerResource, name: "resource",
		reason: ReasonResource, status: http.StatusTooManyRequests, passVal: true,
		policy: func(rc *ResilienceConfig) resilience.Policy { return rc.Resource },
		enabled: func(g *Gate) bool {
			return (g.resource != nil || g.cfg.ResourceCheck != nil) && g.cfg.ResourceKey != nil
		},
		call: callResource,
	},
	{
		layer: LayerPath, name: "path",
		reason: ReasonPathLimit, status: http.StatusTooManyRequests, passVal: true,
		enabled: func(g *Gate) bool { return g.path != nil },
		call: func(g *Gate, ctx *decisionCtx) (bool, error) {
			return allowKeyed(ctx, append(append(ctx.buf[:0], "path:"...), ctx.r.URL.Path...), g.path, nil)
		},
	},
	// The decision journal is the trailing row. It is not a check — it
	// runs after the verdict, records it, and always passes — but it is
	// guarded like one: its own Layer, breaker, fail policy and (when
	// fail-closed and unavailable) denial reason.
	{
		layer: LayerDecision, name: "decision",
		reason: ReasonDecision, status: http.StatusServiceUnavailable, passVal: true,
		policy:  func(rc *ResilienceConfig) resilience.Policy { return rc.Decision },
		enabled: func(g *Gate) bool { return g.cfg.OnDecision != nil },
		call: func(g *Gate, ctx *decisionCtx) (bool, error) {
			g.cfg.OnDecision(ctx.r, ctx.info, ctx.reason)
			return true, nil
		},
	},
}

// layerNames[l] is l.String(), and reasons every ReasonHeader value the
// gate can emit in table order: a reason's index is its slot in the
// telemetry counter table.
var layerNames, reasons = func() (names [numLayers]string, rs [len(layerTable)]string) {
	for i, row := range layerTable {
		names[row.layer], rs[i] = row.name, row.reason
	}
	return names, rs
}()

// Reasons lists every ReasonHeader value the gate can emit, in pipeline
// order. It is the series order of the gate_denials_total family, so
// consumers that pre-resolve per-verdict state range over it.
func Reasons() []string { return append([]string(nil), reasons[:]...) }

// reasonIndex maps a denial reason to its slot in reasons (and in the
// pre-resolved counter table); -1 for a reason the gate never emits.
func reasonIndex(reason string) int {
	for i := range reasons {
		if reasons[i] == reason {
			return i
		}
	}
	return -1
}

// String names the layer as reported in DegradedHeader.
func (l Layer) String() string {
	if l < 0 || l >= numLayers {
		return "unknown"
	}
	return layerNames[l]
}

// degradedNames[mask] is the DegradedHeader value for each combination of
// degraded layers, precomputed so the degraded path does not rebuild it.
var degradedNames = func() [1 << numLayers]string {
	var names [1 << numLayers]string
	for mask := 1; mask < len(names); mask++ {
		var parts []string
		for l := LayerBlocklist; l < numLayers; l++ {
			if mask&(1<<l) != 0 {
				parts = append(parts, l.String())
			}
		}
		names[mask] = strings.Join(parts, ",")
	}
	return names
}()

// byteProbe is an in-process identity lookup over a byte key assembled in
// per-decision scratch: BlockList.BlockedBytes, or EntityLookup's
// FlaggedBytes (which ignores the instant).
type byteProbe func(key []byte, now time.Time) bool

// probeKey asks a layer about a key held in the context's scratch: the
// in-process probe reads it in place, a custom CheckFunc receives the
// same prefixed key as a string.
func (ctx *decisionCtx) probeKey(key []byte, probe byteProbe, check CheckFunc) (bool, error) {
	if probe != nil {
		return probe(key, ctx.now), nil
	}
	return check(string(key), ctx.now)
}

// screenIdentities screens the request's identities — fingerprint, IP,
// client key, prefixed "fp:", "ip:", "ck:" — against the deny list or
// the flagged entity-linkage components, stopping at the first hit or
// error. The "fp:" key is formatted once per decision for both screens.
func screenIdentities(ctx *decisionCtx, probe byteProbe, check CheckFunc) (bool, error) {
	info := &ctx.info
	if info.HasFingerprint {
		if hit, err := ctx.probeKey(ctx.fpKey(), probe, check); hit || err != nil {
			return hit, err
		}
	}
	ctx.buf = append(append(ctx.buf[:0], "ip:"...), info.IP...)
	if hit, err := ctx.probeKey(ctx.buf, probe, check); hit || err != nil {
		return hit, err
	}
	if info.ClientKey == "" {
		return false, nil
	}
	ctx.buf = append(append(ctx.buf[:0], "ck:"...), info.ClientKey...)
	return ctx.probeKey(ctx.buf, probe, check)
}

// allowKeyed charges one request to a keyed limiter: key, assembled in
// the context's scratch, goes to the built-in sharded limiter as bytes or
// to the custom CheckFunc that replaced it as a string.
func allowKeyed(ctx *decisionCtx, key []byte, lim *signal.Limiter, check CheckFunc) (bool, error) {
	ctx.buf = key
	if lim != nil {
		return lim.AllowBytes(key, ctx.now), nil
	}
	return check(string(key), ctx.now)
}

// callResource probes the per-resource limiter. Key extraction is an
// operator hook: it runs inside the guard so its panics degrade the layer
// rather than the goroutine.
func callResource(g *Gate, ctx *decisionCtx) (bool, error) {
	key := g.cfg.ResourceKey(ctx.r)
	if key == "" {
		return true, nil
	}
	return allowKeyed(ctx, append(append(ctx.buf[:0], "rs:"...), key...), g.resource, g.cfg.ResourceCheck)
}
