// Package httpgate adapts the fraud-prevention pipeline to real HTTP
// traffic as net/http middleware. It is the deployment surface for the
// defences the simulation study evaluates: a production service wraps its
// sensitive handlers with a Gate and wires the same blocklists, rate
// limiters and challenge hooks the defender manages.
//
// Client attribution follows the paper's operational reality:
//
//   - the network address comes from the connection (or a trusted
//     forwarding header when configured);
//   - the device fingerprint arrives as a hash in a header set by the
//     site's client-side collector script;
//   - the client key is the session cookie or authenticated profile.
//
// The gate enforces eight layers, in order: blocklists (fingerprint, IP,
// client key), the entity-linkage screen over the same identities, the
// account layer (per-tier feature access, then per-tier rate), a
// challenge hook, rate limits keyed per client profile, per caller-chosen
// resource (e.g. a booking reference) and per path, and last the decision
// journal. Denials are returned as 403/429 (503 for a fail-closed
// journal) with machine-readable reason headers so that downstream
// analytics — and honest clients — can tell the layers apart.
//
// # Hot path
//
// The admitted path is allocation-free: each decision borrows a pooled
// scratch context (attribution, key-assembly buffer, the decision's
// shared clock reading), the enabled rows of the package's layer table
// (layers.go: order, call adapters, fail policies, denial reasons) are
// resolved once at construction into a step table, and built-in layers
// are probed with byte keys assembled in scratch space. Wrap answers a
// denial from header values and bodies built once from the same table,
// so its response write adds nothing beyond net/http's own header
// handling.
//
// # Resilience
//
// Each fallible layer runs behind its own circuit breaker with an
// explicit fail policy: the availability of a defence layer is itself a
// fraud surface (a silently failing rate limit re-opens the abuse window
// it closed), so the gate never lets a layer fail silently. A layer that
// errors, panics, or whose breaker is open is resolved by its
// resilience.Policy — FailOpen skips the layer, FailClosed denies the
// request — the decision is counted, and the response carries the
// affected layer names in DegradedHeader so downstream analytics can
// discount decisions made in degraded mode. Hook panics (Challenge,
// OnDecision, ResourceKey) are always recovered, with or without
// breakers: a misbehaving operator hook must not take down the serving
// goroutine.
package httpgate

import (
	"net"
	"net/http"
	"net/netip"
	"net/textproto"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"funabuse/internal/mitigate"
	"funabuse/internal/obs"
	"funabuse/internal/resilience"
	"funabuse/internal/signal"
	"funabuse/internal/simclock"
)

// Header and cookie names used for client attribution.
const (
	// FingerprintHeader carries the client-side collector's fingerprint
	// hash (hexadecimal).
	FingerprintHeader = "X-Device-Fingerprint"
	// ClientCookie is the session cookie used as the client key.
	ClientCookie = "sid"
	// ReasonHeader names the defence layer that denied a request.
	ReasonHeader = "X-Denied-By"
	// DegradedHeader lists the layers (comma-separated) that were
	// unavailable — breaker open, error, or panic — while this decision
	// was made. Absent on healthy decisions.
	DegradedHeader = "X-Gate-Degraded"
)

// Denial reasons reported in ReasonHeader.
const (
	ReasonBlocklist = "blocklist"
	// ReasonEntity is reported when one of the request's identities sits
	// in a flagged entity-linkage component.
	ReasonEntity = "entity-graph"
	// ReasonAccountTier is reported when the request's path requires a
	// loyalty tier the client's account has not earned.
	ReasonAccountTier = "account-tier"
	// ReasonAccountLimit is reported when the client exceeded its
	// tier's rate allowance.
	ReasonAccountLimit = "rate-limit-account"
	ReasonChallenge    = "challenge"
	ReasonPathLimit    = "rate-limit-path"
	ReasonProfile      = "rate-limit-profile"
	ReasonResource     = "rate-limit-resource"
	// ReasonDecision is reported when the decision journal is unavailable
	// and the journal layer is configured fail-closed (audit-mandatory
	// deployments).
	ReasonDecision = "decision-journal"
)

// ClientInfo is the gate's view of one request's origin.
type ClientInfo struct {
	IP          string
	Fingerprint uint64
	// HasFingerprint reports whether the collector header was present.
	HasFingerprint bool
	ClientKey      string
}

// Decision is the outcome of one gate evaluation.
type Decision struct {
	// Reason is the denying layer's ReasonHeader value; empty on admit.
	Reason string
	// Status is the denial's HTTP status; zero on admit.
	Status int
	// Degraded is the degraded-layer bitmask (bit 1<<Layer for each layer
	// that was unavailable while deciding).
	Degraded uint8
}

// Request is one decision input for DecideBatch: the HTTP request (seen
// by the challenge, resource-key and decision hooks) and the client
// attribution, extracted by the caller — typically via Gate.Client.
type Request struct {
	R    *http.Request
	Info ClientInfo
}

// CheckFunc is a fallible keyed layer check: a blocklist lookup (true
// means blocked) or a limiter decision (true means allowed). In-process
// implementations never fail; remote ones — and fault-injection wrappers —
// return errors, which the layer's breaker and policy absorb.
type CheckFunc func(key string, now time.Time) (bool, error)

// EntityLookup answers whether an entity key belongs to a flagged
// linkage component. The gate probes it with byte keys assembled in
// per-decision scratch, so implementations must not retain the slice;
// entitygraph.Graph's FlaggedBytes is the canonical implementation. The
// interface keeps httpgate decoupled from the graph package.
type EntityLookup interface {
	FlaggedBytes(key []byte) bool
}

// ResilienceConfig wires per-layer circuit breakers and fail policies
// into a Gate.
type ResilienceConfig struct {
	// Breaker is the per-layer breaker template (every enabled layer gets
	// its own instance); zero fields select resilience defaults.
	Breaker resilience.BreakerConfig
	// Fail policies of the layers that run caller-supplied code and so can
	// be unavailable: a BlocklistFunc, the Challenge hook, the ResourceKey
	// hook or ResourceCheck. The zero value, FailOpen, skips an
	// unavailable layer; FailClosed denies the request instead. See
	// DESIGN.md for guidance on choosing per layer. The other layers are
	// in-process built-ins that cannot fail.
	Blocklist resilience.Policy
	Challenge resilience.Policy
	Resource  resilience.Policy
	// Decision governs the OnDecision journal write: FailClosed turns an
	// unavailable audit journal into a 503 denial (audit-mandatory
	// postures); FailOpen serves the request and counts the lost record.
	Decision resilience.Policy
}

// Config assembles a Gate.
type Config struct {
	// Clock supplies time; defaults to the real clock.
	Clock simclock.Clock
	// Blocks is the shared deny list; nil disables the layer (unless
	// BlocklistFunc is set).
	Blocks *mitigate.BlockList
	// BlocklistFunc, when non-nil, replaces Blocks as the lookup — the
	// hook for remote deny lists and fault injection. Keys arrive
	// prefixed ("fp:", "ip:", "ck:") exactly as with Blocks.
	BlocklistFunc CheckFunc
	// Entities, when non-nil, enables the entity-linkage layer: each of
	// the request's identity keys is looked up against flagged graph
	// components, and a hit denies with 403/entity-graph. The hot path
	// only reads the graph — feeding observations into it belongs off the
	// serving path (an OnDecision hook, a log tail). entitygraph.Graph
	// satisfies this.
	Entities EntityLookup
	// Accounts, when non-nil, enables the account-lifecycle layer:
	// per-tier feature access and per-tier rate multipliers resolved
	// against the client key's loyalty tier. As with the entity layer,
	// the hot path only reads the account store — creating and aging
	// accounts belongs off the serving path (an OnDecision hook).
	Accounts *AccountPolicy
	// Challenge, when non-nil, is invoked for every admitted-so-far
	// request; returning false denies with 403/challenge. Wire it to a
	// CAPTCHA or proof-of-work verifier.
	Challenge func(r *http.Request, info ClientInfo) bool
	// PathLimit caps requests per path per window; zero disables.
	PathLimit  int
	PathWindow time.Duration
	// ProfileLimit caps requests per client key per window; zero disables.
	ProfileLimit  int
	ProfileWindow time.Duration
	// ResourceKey extracts a resource identity (booking reference, phone
	// number, ...) from the request for per-resource limiting; nil or an
	// empty return disables the layer for that request.
	ResourceKey func(r *http.Request) string
	// ResourceLimit caps requests per resource per window; zero disables.
	ResourceLimit  int
	ResourceWindow time.Duration
	// ResourceCheck, when non-nil, replaces the built-in per-resource
	// limiter (which is then not constructed) — the hook for remote
	// quota services and fault injection. Keys arrive prefixed "rs:".
	ResourceCheck CheckFunc
	// TrustForwardedFor reads the client IP from X-Forwarded-For's first
	// hop. Enable only behind a trusted proxy.
	TrustForwardedFor bool
	// RequireFingerprint denies requests missing the collector header —
	// a soft bot gate: real browsers run the collector, trivial scripts
	// do not.
	RequireFingerprint bool
	// OnDecision, when non-nil, observes every decision (for logging or
	// the defender's journals). It may run concurrently and must be safe
	// for concurrent use.
	OnDecision func(r *http.Request, info ClientInfo, deniedBy string)
	// Resilience, when non-nil, puts every enabled fallible layer behind
	// its own circuit breaker with the configured fail policies. When nil
	// the gate still recovers hook panics and applies (fail-open) layer
	// policies; it just never short-circuits a flapping layer.
	Resilience *ResilienceConfig

	// telemetry, telLabels and traces are set only through WithTelemetry,
	// WithTelemetryLabels and WithTraces: new cross-cutting concerns
	// arrive as options, not as further growth of this struct.
	telemetry *obs.Registry
	telLabels []obs.Label
	traces    *obs.TraceRing
}

// layerGuard is one layer's resilience state: its breaker (nil without a
// ResilienceConfig), fail policy, and degradation counters.
type layerGuard struct {
	breaker  *resilience.Breaker
	policy   resilience.Policy
	errors   atomic.Uint64
	panics   atomic.Uint64
	degraded atomic.Uint64
}

// decisionCtx is the pooled per-decision scratch: the request under
// evaluation, its attribution, the decision's shared clock reading, a
// key-assembly buffer, what more than one row derives from the request
// (the "fp:" key, the built-in account tier) and, once the check steps
// have run, the verdict the journal step records. Pooling it keeps the
// admitted hot path free of heap allocations. A context never outlives
// the decision that borrowed it: every layer call runs under panic
// isolation (safeCall), so no panic can carry a pooled context out of
// decide before it is released.
type decisionCtx struct {
	r      *http.Request
	info   ClientInfo
	now    time.Time
	buf    []byte
	reason string
	// tier is the built-in account tier once a row resolved it, else -1.
	tier int
	// fp[:fpLen] is the "fp:<hex>" key once a screen formatted it.
	fp    [len("fp:") + 16]byte
	fpLen uint8
}

// ctxBufCap is the key scratch's initial capacity; buffers grown past
// ctxBufMax by pathological inputs are dropped on release rather than
// pinned in the pool.
const (
	ctxBufCap = 128
	ctxBufMax = 4096
)

var ctxPool = sync.Pool{
	New: func() any { return &decisionCtx{buf: make([]byte, 0, ctxBufCap)} },
}

func acquireCtx(r *http.Request, info ClientInfo, now time.Time) *decisionCtx {
	ctx := ctxPool.Get().(*decisionCtx)
	ctx.bind(r, info)
	ctx.now = now
	return ctx
}

// bind points ctx at one request, dropping what was derived from the last.
func (ctx *decisionCtx) bind(r *http.Request, info ClientInfo) {
	ctx.r, ctx.info, ctx.tier, ctx.fpLen = r, info, -1, 0
}

// fpKey returns the request's "fp:<hex>" key, formatted on first use.
func (ctx *decisionCtx) fpKey() []byte {
	if ctx.fpLen == 0 {
		ctx.fpLen = uint8(len(strconv.AppendUint(append(ctx.fp[:0], "fp:"...), ctx.info.Fingerprint, 16)))
	}
	return ctx.fp[:ctx.fpLen]
}

// releaseCtx returns ctx to the pool, dropping request references so the
// pool never pins request memory between decisions.
func releaseCtx(ctx *decisionCtx) {
	ctx.bind(nil, ClientInfo{})
	ctx.reason = ""
	if cap(ctx.buf) > ctxBufMax {
		ctx.buf = make([]byte, 0, ctxBufCap)
	}
	ctx.buf = ctx.buf[:0]
	ctxPool.Put(ctx)
}

// Gate is an http.Handler middleware enforcing the defence pipeline. It is
// safe for concurrent use without a global lock: each rate-limiting layer
// is a lock-striped signal.Limiter, the block list synchronises itself,
// and the counters are atomics, so decisions for unrelated keys proceed in
// parallel. The Challenge and OnDecision hooks are called outside any gate
// lock and must be concurrency-safe; panics in them are recovered and
// resolved by the layer's fail policy.
type Gate struct {
	cfg   Config
	clock simclock.Clock

	// Built-in layer state; nil when the layer is disabled or replaced by
	// a custom CheckFunc (read straight from cfg). The built-ins are the
	// byte-keyed fast path.
	blockProbe  byteProbe
	entityProbe byteProbe
	path        *signal.Limiter
	profile     *signal.Limiter
	resource    *signal.Limiter

	// Account layer state: the normalized policy, the per-tier limiters.
	accounts    *AccountPolicy
	accountLims [numAccountTiers]*signal.Limiter

	// journalStep is the journal row, resolved like a step; nil without
	// a decision hook.
	journalStep *layerRow

	// steps is the pre-resolved pipeline: the enabled layerTable rows,
	// copied in table order so the hot path reads the call adapter,
	// continue verdict and denial reason/status without a further
	// indirection.
	steps []layerRow

	guards [numLayers]layerGuard

	admitted atomic.Uint64
	denied   atomic.Uint64
	degraded atomic.Uint64

	// tel holds pre-resolved telemetry handles; nil without WithTelemetry
	// or WithTraces.
	tel *gateTelemetry
}

// New builds a Gate from cfg, then applies opts in order. Options carry
// the cross-cutting concerns Config has no field for (WithResilience,
// WithTelemetry, ...); plain New(cfg) construction keeps working.
func New(cfg Config, opts ...Option) *Gate {
	for _, opt := range opts {
		opt(&cfg)
	}
	g := &Gate{cfg: cfg, clock: cfg.Clock}
	if g.clock == nil {
		g.clock = simclock.Real{}
	}

	if cfg.BlocklistFunc == nil && cfg.Blocks != nil {
		g.blockProbe = cfg.Blocks.BlockedBytes
	}
	if lookup := cfg.Entities; lookup != nil {
		g.entityProbe = func(key []byte, _ time.Time) bool { return lookup.FlaggedBytes(key) }
	}
	g.path = newLimiter(cfg.PathLimit, cfg.PathWindow)
	g.profile = newLimiter(cfg.ProfileLimit, cfg.ProfileWindow)
	if cfg.ResourceCheck == nil {
		g.resource = newLimiter(cfg.ResourceLimit, cfg.ResourceWindow)
	}
	g.buildAccounts()

	// Resolve the step table: one entry per enabled row, in table order,
	// the trailing journal row held apart because it runs after the
	// verdict. With a ResilienceConfig every layer that has one takes its
	// fail policy, and every enabled layer its own breaker.
	rc := cfg.Resilience
	for i := range layerTable {
		row := &layerTable[i]
		if rc != nil && row.policy != nil {
			g.guards[row.layer].policy = row.policy(rc)
		}
		if !row.enabled(g) {
			continue
		}
		if rc != nil {
			g.guards[row.layer].breaker = resilience.NewBreaker(rc.Breaker)
		}
		if row.layer == LayerDecision {
			g.journalStep = row
		} else {
			g.steps = append(g.steps, *row)
		}
	}
	g.initTelemetry(cfg.telemetry, cfg.traces)
	return g
}

// newLimiter builds a layer's built-in sharded limiter; nil when the limit
// disables the layer.
func newLimiter(limit int, window time.Duration) *signal.Limiter {
	if limit <= 0 {
		return nil
	}
	return signal.NewLimiter(signal.LimiterConfig{Window: window, Limit: limit})
}

// Wrap returns next guarded by the gate. A denial is answered as
// Header().Set(ReasonHeader, reason) and http.Error(w, StatusText(status),
// status) would answer it — same status, headers and body — but from
// values built once from the layer table (layers.go), so writing it
// allocates nothing beyond net/http's own header handling.
func (g *Gate) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := g.Decide(r, g.Client(r))
		if d.Degraded != 0 {
			w.Header()[DegradedHeader] = headerValue(degradedNames[:], int(d.Degraded))
		}
		if d.Reason != "" {
			// Decide emits only the table rows' reasons, each with its
			// row's status.
			i := reasonIndex(d.Reason)
			h := w.Header()
			delete(h, "Content-Length")
			h[ReasonHeader] = headerValue(reasons[:], i)
			h["Content-Type"] = textPlain
			h["X-Content-Type-Options"] = noSniff
			w.WriteHeader(d.Status)
			_, _ = w.Write(denialBodies[i]) // a failed write is the client's lost connection
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Decide evaluates the full pipeline for one request — layers, the
// decision journal, counters and telemetry — and returns the verdict. It
// is everything Wrap does short of writing the HTTP response, exported so
// in-process callers (load generators, fleet fronts) can drive the gate
// without a socket.
func (g *Gate) Decide(r *http.Request, info ClientInfo) Decision {
	now := g.clock.Now()
	reason, status, mask := g.decideAt(r, info, now)
	if reason != "" {
		g.denied.Add(1)
	} else {
		g.admitted.Add(1)
	}
	g.observeDecision(now, r.URL.Path, reason, mask)
	if mask != 0 {
		g.degraded.Add(1)
	}
	return Decision{Reason: reason, Status: status, Degraded: mask}
}

// decideAt runs the layers in order and then the journal, at the caller's
// clock reading, returning the denial reason, HTTP status and the
// degraded-layer bitmask, or ("", 0, mask) to admit.
func (g *Gate) decideAt(r *http.Request, info ClientInfo, now time.Time) (string, int, uint8) {
	ctx := acquireCtx(r, info, now)
	reason, status, mask := g.run(ctx)
	reason, status, mask = g.journal(ctx, reason, status, mask)
	releaseCtx(ctx)
	return reason, status, mask
}

// journal records ctx's request and the verdict the check steps reached
// through the decision hook, as one more guarded step. An unavailable
// journal — breaker open, error or panic — is marked degraded and, under
// FailClosed, turns an admit into the journal row's denial.
func (g *Gate) journal(ctx *decisionCtx, reason string, status int, mask uint8) (string, int, uint8) {
	if g.journalStep == nil {
		return reason, status, mask
	}
	ctx.reason = reason
	ok, deg := g.runCheck(g.journalStep, ctx)
	if !ok && reason == "" {
		reason, status = g.journalStep.reason, g.journalStep.status
	}
	return reason, status, mask | deg
}

// run evaluates the pre-resolved step table against ctx.
func (g *Gate) run(ctx *decisionCtx) (string, int, uint8) {
	var mask uint8
	if g.cfg.RequireFingerprint && !ctx.info.HasFingerprint {
		return ReasonChallenge, http.StatusForbidden, mask
	}
	for i := range g.steps {
		st := &g.steps[i]
		if st.needsKey && ctx.info.ClientKey == "" {
			continue
		}
		v, deg := g.runCheck(st, ctx)
		mask |= deg
		if v != st.passVal {
			return st.reason, st.status, mask
		}
	}
	return "", 0, mask
}

// runCheck runs one guarded layer call. An unavailable layer — breaker
// open, error, or panic — is resolved by its policy: FailOpen yields the
// step's continue verdict, FailClosed its negation. The returned deg is
// the layer's degraded-mask bit, 0 on a healthy call.
func (g *Gate) runCheck(st *layerRow, ctx *decisionCtx) (verdict bool, deg uint8) {
	gd := &g.guards[st.layer]
	if gd.breaker != nil && !gd.breaker.Allow(ctx.now) {
		return gd.degrade(st.layer, st.passVal)
	}
	v, err := g.safeCall(gd, st, ctx)
	if gd.breaker != nil {
		gd.breaker.Record(ctx.now, err == nil)
	}
	if err != nil {
		gd.errors.Add(1)
		return gd.degrade(st.layer, st.passVal)
	}
	return v, 0
}

// degrade resolves an unavailable layer by its policy and counts it.
func (gd *layerGuard) degrade(l Layer, failOpen bool) (bool, uint8) {
	gd.degraded.Add(1)
	bit := uint8(1) << uint(l)
	if gd.policy == resilience.FailClosed {
		return !failOpen, bit
	}
	return failOpen, bit
}

// safeCall invokes a layer's call adapter with panic isolation.
func (g *Gate) safeCall(gd *layerGuard, st *layerRow, ctx *decisionCtx) (v bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			gd.panics.Add(1)
			v, err = false, &resilience.PanicError{Value: p}
		}
	}()
	return st.call(g, ctx)
}

// Client extracts the gate's view of the request's origin — the
// attribution Wrap computes before deciding, exported for Decide and
// DecideBatch callers.
func (g *Gate) Client(r *http.Request) ClientInfo {
	var info ClientInfo

	info.IP = remoteIP(r, g.cfg.TrustForwardedFor)

	if raw := r.Header.Get(FingerprintHeader); raw != "" {
		if v, err := strconv.ParseUint(raw, 16, 64); err == nil {
			info.Fingerprint = v
			info.HasFingerprint = true
		}
	}
	if v := cookieValue(r, ClientCookie); v != "" {
		info.ClientKey = v
	}
	return info
}

// cookieValue answers what r.Cookie(name) would — the value of the first
// well-formed cookie called name, "" when there is none — without
// allocating: net/http's accessor parses every cookie into fresh structs
// per call, which was the last allocation on the attribution path. As in
// net/http, a part and its name are trimmed of ASCII blanks (so "sid =v"
// names sid), a part without '=' is a cookie with an empty value, and a
// value holding a byte RFC 6265 forbids is skipped for the next
// candidate. The value is returned as a substring of the header, with
// surrounding double quotes stripped.
func cookieValue(r *http.Request, name string) string {
	for _, line := range r.Header["Cookie"] {
		for line != "" {
			part := line
			if i := strings.IndexByte(line, ';'); i >= 0 {
				part, line = line[:i], line[i+1:]
			} else {
				line = ""
			}
			// The trimmed part is name, then blanks, then '=' or its end.
			val, ok := strings.CutPrefix(textproto.TrimString(part), name)
			if !ok {
				continue
			}
			for val != "" && (val[0] == ' ' || val[0] == '\t' || val[0] == '\r' || val[0] == '\n') {
				val = val[1:]
			}
			if val != "" {
				if val[0] != '=' {
					continue
				}
				val = val[1:]
			}
			if len(val) > 1 && val[0] == '"' && val[len(val)-1] == '"' {
				val = val[1 : len(val)-1]
			}
			if validCookieValue(val) {
				return val
			}
		}
	}
	return ""
}

// validCookieValue reports whether every byte of v may appear in a cookie
// value.
func validCookieValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if !cookieValueBytes[v[i]] {
			return false
		}
	}
	return true
}

// cookieValueBytes marks the bytes a cookie value may hold: printable
// ASCII other than '"', ';' and '\'.
var cookieValueBytes = func() (ok [256]bool) {
	for b := byte(0x20); b < 0x7f; b++ {
		ok[b] = b != '"' && b != ';' && b != '\\'
	}
	return ok
}()

// QueryValue returns the first value of the URL query parameter name,
// exactly as r.URL.Query().Get(name) does, without that call's per-request
// url.Values map: a raw query free of escapes ('%', '+') and of the ';'
// separator net/url rejects is scanned in place and the value returned as
// a substring of it; any other query takes the net/url path. It is the
// extractor for ResourceKey and OnDecision hooks that read one parameter —
// a booking reference, a phone number — on every request.
func QueryValue(r *http.Request, name string) string {
	q := r.URL.RawQuery
	if strings.ContainsAny(q, "%+;") {
		return r.URL.Query().Get(name)
	}
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if key, val, _ := strings.Cut(pair, "="); key == name && pair != "" {
			return val
		}
	}
	return ""
}

// remoteIP resolves the client address, honouring X-Forwarded-For only
// when trusted. A malformed first hop (empty, whitespace, or not an IP
// address — e.g. the header ",1.2.3.4") falls back to RemoteAddr rather
// than attributing every such request to the shared degenerate "ip:" key.
// A valid hop is keyed on its canonical form, zone dropped, so spellings
// of one address ("2001:DB8::1", "2001:db8:0::1", "fe80::1%eth0") never
// become separate blocklist, limiter and entity keys; a hop already in
// canonical form is returned as is, without allocating.
func remoteIP(r *http.Request, trustXFF bool) string {
	if trustXFF {
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			first := xff
			if i := strings.IndexByte(xff, ','); i >= 0 {
				first = xff[:i]
			}
			first = strings.TrimSpace(first)
			if addr, err := netip.ParseAddr(first); err == nil {
				return canonicalAddr(first, addr)
			}
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// canonicalAddr returns addr's zone-free canonical spelling, reusing raw
// (the text addr was parsed from) when it already is that spelling.
func canonicalAddr(raw string, addr netip.Addr) string {
	addr = addr.WithZone("")
	var buf [64]byte
	if canon := addr.AppendTo(buf[:0]); string(canon) == raw {
		return raw
	}
	return addr.String()
}
