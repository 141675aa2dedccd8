package loadgen

import (
	"fmt"
	"net"
	"net/http"
	"slices"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/entitygraph"
	"funabuse/internal/httpgate"
	"funabuse/internal/mitigate"
	"funabuse/internal/obs"
	"funabuse/internal/simclock"
)

// TargetConfig describes the defended server a load run drives: an
// httpgate-wrapped backend on a real 127.0.0.1 listener, with the
// defence layers under test and, optionally, the rule-deploying defender
// that closes the arms-race loop.
type TargetConfig struct {
	// Clock is shared by the gate, limiters and deployer; defaults to
	// the real clock. Virtual runs pass the Runner's manual clock.
	Clock simclock.Clock

	// RuleThreshold, when positive, wires a RuleDeployer into the gate's
	// decision hook: RuleThreshold requests from one fingerprint within
	// RuleWindow on RulePaths (empty: all paths) deploys a block rule.
	RuleThreshold int
	RuleWindow    time.Duration
	RulePaths     []string

	// Accounts, when non-nil, wires the account-lifecycle defence both
	// ways: the gate's account layer resolves each client key's loyalty
	// tier from the store — denying AccountRestricted paths below their
	// minimum tier and rate-limiting per tier at AccountBaseLimit scaled
	// by the gate's tier multipliers over AccountWindow — and the
	// decision hook creates accounts on first sight and accrues every
	// identified request onto them (admitted AccountBookingPaths hits
	// count as bookings, denials as denials), so tiers are earned by live
	// traffic rather than assigned. The caller owns the store and may
	// pre-register established members.
	Accounts            *account.Store
	AccountRestricted   map[string]int
	AccountBaseLimit    int
	AccountWindow       time.Duration
	AccountBookingPaths []string

	// Decoys, when non-nil, seeds the rule deployer's honeypot check: an
	// admitted request touching a decoy booking reference is journaled
	// and its fingerprint blocked immediately — enumeration evidence
	// needs no volume threshold. A deployer is wired even when
	// RuleThreshold is zero.
	Decoys *mitigate.DecoySet

	// EntityGraph, when non-nil, wires the entity-linkage defence both
	// ways: the gate's entity layer denies requests whose fingerprint,
	// address or client key sits in a flagged linkage component, and the
	// decision hook observes every EntityPaths request (empty: all paths;
	// fingerprint + address + booking reference, at EntityWeak score each)
	// into the graph. The caller owns the graph and reads its Stats after
	// the run.
	EntityGraph *entitygraph.Graph
	EntityPaths []string
	EntityWeak  float64

	// Per-layer rate limits; zero disables a layer. ResourceLimit keys
	// on the pnr query parameter — the paper's per-booking-reference
	// limit for the SMS path.
	PathLimit      int
	PathWindow     time.Duration
	ProfileLimit   int
	ProfileWindow  time.Duration
	ResourceLimit  int
	ResourceWindow time.Duration

	// Telemetry and Traces instrument the gate (see httpgate options).
	Telemetry *obs.Registry
	Traces    *obs.TraceRing
}

// Target is a running defended server.
type Target struct {
	// Gate is the serving middleware; Blocks its live deny list.
	Gate   *httpgate.Gate
	Blocks *mitigate.BlockList
	// Deployer is the arms-race defender, nil when RuleThreshold is 0.
	Deployer *RuleDeployer
	// URL is the server root, ready for RunnerConfig.BaseURL.
	URL string

	srv *http.Server
}

// NewTargetGate builds the defended gate StartTarget serves, without a
// listener: the same blocklist, limits, rule-deploying defender and
// telemetry wiring, exposed so direct (in-process) load runs measure the
// identical decision pipeline the socket runs exercise. The gate trusts
// X-Forwarded-For (the load generator is its own trusted proxy,
// presenting each simulated client's address) and requires the
// fingerprint header, as a collector-backed deployment would.
func NewTargetGate(cfg TargetConfig) (*httpgate.Gate, *mitigate.BlockList, *RuleDeployer) {
	blocks := mitigate.NewBlockList(0)
	onDecision, deployer := decisionHook(cfg, blocks)
	gcfg := httpgate.Config{
		Clock:              cfg.Clock,
		Blocks:             blocks,
		TrustForwardedFor:  true,
		RequireFingerprint: true,
		PathLimit:          cfg.PathLimit,
		PathWindow:         cfg.PathWindow,
		ProfileLimit:       cfg.ProfileLimit,
		ProfileWindow:      cfg.ProfileWindow,
		ResourceLimit:      cfg.ResourceLimit,
		ResourceWindow:     cfg.ResourceWindow,
		// Inert without a ResourceLimit: the layer needs both.
		ResourceKey: func(r *http.Request) string { return httpgate.QueryValue(r, "pnr") },
		OnDecision:  onDecision,
	}
	var opts []httpgate.Option
	if cfg.Accounts != nil {
		opts = append(opts, httpgate.WithAccounts(httpgate.AccountPolicy{
			Lookup:     cfg.Accounts,
			Restricted: cfg.AccountRestricted,
			BaseLimit:  cfg.AccountBaseLimit,
			Window:     cfg.AccountWindow,
		}))
	}
	if cfg.EntityGraph != nil {
		gcfg.Entities = cfg.EntityGraph
	}
	if cfg.Telemetry != nil {
		opts = append(opts, httpgate.WithTelemetry(cfg.Telemetry))
	}
	if cfg.Traces != nil {
		opts = append(opts, httpgate.WithTraces(cfg.Traces))
	}
	return httpgate.New(gcfg, opts...), blocks, deployer
}

// decisionHook builds the gate's decision hook from cfg: one func that
// reads the request's path and booking reference (pnr parameter) once and
// feeds every defender cfg enables — the rule deployer, which it also
// returns and which pushes rules into blocks, the account store and the
// entity graph. Both results are nil when cfg enables none.
func decisionHook(cfg TargetConfig, blocks *mitigate.BlockList) (func(*http.Request, httpgate.ClientInfo, string), *RuleDeployer) {
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	var deployer *RuleDeployer
	if cfg.RuleThreshold > 0 || cfg.Decoys != nil {
		deployer = &RuleDeployer{
			blocks:    blocks,
			clock:     clock,
			threshold: cfg.RuleThreshold,
			window:    cfg.RuleWindow,
			decoys:    cfg.Decoys,
			counts:    make(map[uint64]int),
			ruleAt:    make(map[uint64]time.Time),
		}
	}
	var graph *graphFeeder
	if cfg.EntityGraph != nil {
		graph = &graphFeeder{graph: cfg.EntityGraph, weak: cfg.EntityWeak}
	}
	if deployer == nil && cfg.Accounts == nil && graph == nil {
		return nil, nil
	}
	return func(r *http.Request, info httpgate.ClientInfo, deniedBy string) {
		path, ref := r.URL.Path, httpgate.QueryValue(r, "pnr")
		if deployer != nil {
			deployer.feed(watches(cfg.RulePaths, path), ref, info, deniedBy)
		}
		// Anonymous requests carry no account identity.
		if cfg.Accounts != nil && info.ClientKey != "" {
			booking := deniedBy == "" && slices.Contains(cfg.AccountBookingPaths, path)
			cfg.Accounts.Observe(info.ClientKey, clock.Now(), booking, deniedBy != "")
		}
		if graph != nil && watches(cfg.EntityPaths, path) {
			graph.feed(ref, info)
		}
	}, deployer
}

// watches reports whether a defender watching paths sees path; an empty
// list watches every path.
func watches(paths []string, path string) bool {
	return len(paths) == 0 || slices.Contains(paths, path)
}

// okBody is what the backend behind StartTarget's gate serves.
var okBody = []byte("ok\n")

// serveOK is the backend behind StartTarget's gate. It never calls
// Header, so net/http sniffs the body's Content-Type (text/plain;
// charset=utf-8) and skips the header clone it makes for a handler that
// touched the map.
func serveOK(w http.ResponseWriter, _ *http.Request) {
	_, _ = w.Write(okBody) // a failed write is the client's lost connection
}

// StartTarget boots the defended server on an ephemeral 127.0.0.1 port.
func StartTarget(cfg TargetConfig) (*Target, error) {
	gate, blocks, deployer := NewTargetGate(cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loadgen: target listen: %w", err)
	}
	srv := &http.Server{Handler: gate.Wrap(http.HandlerFunc(serveOK))}
	go func() { _ = srv.Serve(ln) }()
	return &Target{
		Gate:     gate,
		Blocks:   blocks,
		Deployer: deployer,
		URL:      "http://" + ln.Addr().String(),
		srv:      srv,
	}, nil
}

// Close shuts the server down.
func (t *Target) Close() error { return t.srv.Close() }
