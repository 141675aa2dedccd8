package httpgate

import "time"

// numAccountTiers is the gate's view of the loyalty ladder
// (guest/member/silver/gold). It mirrors account.NumTiers without
// importing the package: the lookup seam keeps httpgate decoupled from
// the store exactly as EntityLookup decouples it from the graph. Tiers
// outside the range are clamped.
const numAccountTiers = 4

// accountTierNames names the tier slots for telemetry labels.
var accountTierNames = [numAccountTiers]string{"guest", "member", "silver", "gold"}

// AccountLookup resolves a client key's loyalty tier (0 = guest). The
// gate probes it once per Decide on the admitted hot path — the feature
// gate and the per-tier rate share the answer; DecideBatch, which runs a
// step for the whole round before the next, probes once per step — so
// implementations must be allocation-free and safe for concurrent use;
// account.Store's TierOf is the canonical implementation. Unknown and
// empty keys are guests.
type AccountLookup interface {
	TierOf(key string) int
}

// DefaultAccountMultipliers is the per-tier rate multiplier ladder used
// when AccountPolicy.Multipliers is nil: each tier quadruples the
// allowance of the one below, so history buys headroom and a freshly
// registered attacker account gets the guest trickle.
var DefaultAccountMultipliers = []int{1, 4, 16, 64}

// AccountPolicy configures the account-lifecycle layer: which paths are
// reserved for which loyalty tiers, and how much per-key rate each tier
// is allowed.
type AccountPolicy struct {
	// Lookup resolves client keys to tiers; nil disables the layer
	// unless TierFunc is set.
	Lookup AccountLookup
	// TierFunc, when non-nil, replaces Lookup as the tier resolution —
	// the hook for remote account services and fault injection. Errors
	// are absorbed by the layer's breaker and fail policy.
	TierFunc func(key string, now time.Time) (int, error)
	// Restricted maps a request path to the minimum tier allowed on it
	// (e.g. bulk seat-map probing gated to member+). Requests below the
	// bar are denied 403/account-tier; paths not listed are open to all
	// tiers. Empty disables the feature-access step.
	Restricted map[string]int
	// BaseLimit caps requests per client key per Window for tier 0;
	// tier t gets BaseLimit*Multipliers[t]. Zero disables the per-tier
	// rate step.
	BaseLimit int
	Window    time.Duration
	// Multipliers is the per-tier rate ladder, indexed by tier; nil
	// selects DefaultAccountMultipliers, entries <= 0 inherit the
	// highest preceding positive multiplier.
	Multipliers []int
}

// buildAccounts normalizes the account policy and constructs the
// per-tier limiter table.
func (g *Gate) buildAccounts() {
	p := g.cfg.Accounts
	if p == nil || (p.Lookup == nil && p.TierFunc == nil) {
		return
	}
	pol := *p
	g.accounts = &pol
	if pol.BaseLimit <= 0 || pol.Window <= 0 {
		return
	}
	mults := pol.Multipliers
	if mults == nil {
		mults = DefaultAccountMultipliers
	}
	last := 1
	for t := 0; t < numAccountTiers; t++ {
		if t < len(mults) && mults[t] > 0 {
			last = mults[t]
		}
		g.accountLims[t] = g.newLimiter(nil, pol.BaseLimit*last, pol.Window)
	}
}

// accountTier resolves the request's loyalty tier, clamped into the
// gate's tier range. The built-in lookup runs once per decision and both
// account steps share its answer; a custom TierFunc, the fault-injection
// seam, is asked by each step. count adds the tier to the per-tier
// telemetry family; the callers arrange that exactly one account step
// counts, so a request is counted once even when both steps evaluate it.
func accountTier(g *Gate, ctx *decisionCtx, count bool) (int, error) {
	var tier int
	switch fn := g.accounts.TierFunc; {
	case fn != nil:
		t, err := fn(ctx.info.ClientKey, ctx.now)
		if err != nil {
			return 0, err
		}
		tier = min(max(t, 0), numAccountTiers-1)
	case ctx.tier >= 0:
		tier = ctx.tier
	default:
		tier = min(max(g.accounts.Lookup.TierOf(ctx.info.ClientKey), 0), numAccountTiers-1)
		ctx.tier = tier
	}
	if tel := g.tel; count && tel != nil && tel.tiers[tier] != nil {
		tel.tiers[tier].Inc()
	}
	return tier, nil
}

// callAccountGate enforces per-tier feature access: paths in Restricted
// require the mapped minimum tier. When enabled it runs first and sees
// every request, so it owns the tier count.
func callAccountGate(g *Gate, ctx *decisionCtx) (bool, error) {
	tier, err := accountTier(g, ctx, true)
	if err != nil {
		return false, err
	}
	min, ok := g.accounts.Restricted[ctx.r.URL.Path]
	if !ok {
		return true, nil
	}
	return tier >= min, nil
}

// callAccountLimit probes the tier's per-client-key limiter. It counts
// the tier only when the feature gate is off.
func callAccountLimit(g *Gate, ctx *decisionCtx) (bool, error) {
	tier, err := accountTier(g, ctx, len(g.accounts.Restricted) == 0)
	if err != nil {
		return false, err
	}
	lim := g.accountLims[tier]
	if lim == nil {
		return true, nil
	}
	return allowKeyed(ctx, append(append(ctx.buf[:0], "ak:"...), ctx.info.ClientKey...), lim, nil)
}
