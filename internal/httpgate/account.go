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
// gate and the per-tier rate share the answer — so implementations must
// be allocation-free and safe for concurrent use; account.Store's TierOf
// is the canonical implementation. Unknown and empty keys are guests.
type AccountLookup interface {
	TierOf(key string) int
}

// accountMultipliers is the per-tier rate multiplier ladder: each tier
// quadruples the allowance of the one below, so history buys headroom and
// a freshly registered attacker account gets the guest trickle.
var accountMultipliers = [numAccountTiers]int{1, 4, 16, 64}

// AccountPolicy configures the account-lifecycle layer: which paths are
// reserved for which loyalty tiers, and how much per-key rate each tier
// is allowed.
type AccountPolicy struct {
	// Lookup resolves client keys to tiers; nil disables the layer.
	Lookup AccountLookup
	// Restricted maps a request path to the minimum tier allowed on it
	// (e.g. bulk seat-map probing gated to member+). Requests below the
	// bar are denied 403/account-tier; paths not listed are open to all
	// tiers. Empty disables the feature-access step.
	Restricted map[string]int
	// BaseLimit caps requests per client key per Window for tier 0; tier
	// t gets BaseLimit times its multiplier (1, 4, 16, 64). Zero disables
	// the per-tier rate step.
	BaseLimit int
	Window    time.Duration
}

// buildAccounts normalizes the account policy and constructs the
// per-tier limiter table.
func (g *Gate) buildAccounts() {
	p := g.cfg.Accounts
	if p == nil || p.Lookup == nil {
		return
	}
	pol := *p
	g.accounts = &pol
	if pol.BaseLimit <= 0 || pol.Window <= 0 {
		return
	}
	for t, mult := range accountMultipliers {
		g.accountLims[t] = newLimiter(pol.BaseLimit*mult, pol.Window)
	}
}

// accountTier resolves the request's loyalty tier, clamped into the
// gate's tier range. The lookup runs once per decision and both account
// steps share its answer. count adds the tier to the per-tier telemetry
// family; the callers arrange that exactly one account step counts, so a
// request is counted once even when both steps evaluate it.
func accountTier(g *Gate, ctx *decisionCtx, count bool) int {
	tier := ctx.tier
	if tier < 0 {
		tier = min(max(g.accounts.Lookup.TierOf(ctx.info.ClientKey), 0), numAccountTiers-1)
		ctx.tier = tier
	}
	if tel := g.tel; count && tel != nil && tel.tiers[tier] != nil {
		tel.tiers[tier].Inc()
	}
	return tier
}

// callAccountGate enforces per-tier feature access: paths in Restricted
// require the mapped minimum tier. When enabled it runs first and sees
// every request, so it owns the tier count.
func callAccountGate(g *Gate, ctx *decisionCtx) (bool, error) {
	tier := accountTier(g, ctx, true)
	min, ok := g.accounts.Restricted[ctx.r.URL.Path]
	if !ok {
		return true, nil
	}
	return tier >= min, nil
}

// callAccountLimit probes the tier's per-client-key limiter. It counts
// the tier only when the feature gate is off.
func callAccountLimit(g *Gate, ctx *decisionCtx) (bool, error) {
	tier := accountTier(g, ctx, len(g.accounts.Restricted) == 0)
	lim := g.accountLims[tier]
	if lim == nil {
		return true, nil
	}
	return allowKeyed(ctx, append(append(ctx.buf[:0], "ak:"...), ctx.info.ClientKey...), lim, nil)
}
