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

	// RuleThreshold, when positive, wires a RuleDeployer as the gate's
	// decision hook: RuleThreshold requests from one fingerprint within
	// RuleWindow on RulePaths (empty: all paths) deploys a block rule.
	RuleThreshold int
	RuleWindow    time.Duration
	RulePaths     []string

	// Accounts, when non-nil, wires the account-lifecycle defence both
	// ways: the gate's account layer resolves each client key's loyalty
	// tier from the store — denying AccountRestricted paths below their
	// minimum tier and rate-limiting per tier at AccountBaseLimit scaled
	// by the gate's tier multipliers over AccountWindow — and an
	// AccountFeeder creates accounts on first sight and accrues every
	// identified request (admitted AccountBookingPaths hits count as
	// bookings). The caller owns the store and may pre-register
	// established members.
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
	// address or client key sits in a flagged linkage component, and a
	// GraphFeeder observes every EntityPaths request (fingerprint +
	// address + booking reference, at EntityWeak score each) into the
	// graph. The caller owns the graph and reads its Stats after the run.
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
	ln  net.Listener
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
	}
	var deployer *RuleDeployer
	var sinks decisionSinks
	if cfg.RuleThreshold > 0 || cfg.Decoys != nil {
		deployer = NewRuleDeployer(RuleDeployerConfig{
			Blocks:    blocks,
			Clock:     cfg.Clock,
			Threshold: cfg.RuleThreshold,
			Window:    cfg.RuleWindow,
			Paths:     cfg.RulePaths,
			Decoys:    cfg.Decoys,
		})
		sinks = append(sinks, deployer.decisionSinks...)
	}
	var opts []httpgate.Option
	if cfg.Accounts != nil {
		opts = append(opts, httpgate.WithAccounts(httpgate.AccountPolicy{
			Lookup:     cfg.Accounts,
			Restricted: cfg.AccountRestricted,
			BaseLimit:  cfg.AccountBaseLimit,
			Window:     cfg.AccountWindow,
		}))
		sinks = append(sinks, NewAccountFeeder(AccountFeederConfig{
			Store:        cfg.Accounts,
			Clock:        cfg.Clock,
			BookingPaths: cfg.AccountBookingPaths,
		}).decisionSinks...)
	}
	if cfg.EntityGraph != nil {
		gcfg.Entities = cfg.EntityGraph
		sinks = append(sinks, NewGraphFeeder(GraphFeederConfig{
			Graph: cfg.EntityGraph,
			Weak:  cfg.EntityWeak,
			Paths: cfg.EntityPaths,
		}).decisionSinks...)
	}
	if len(sinks) > 0 {
		gcfg.OnDecision = sinks.OnDecision
	}
	if cfg.Telemetry != nil {
		opts = append(opts, httpgate.WithTelemetry(cfg.Telemetry))
	}
	if cfg.Traces != nil {
		opts = append(opts, httpgate.WithTraces(cfg.Traces))
	}
	return httpgate.New(gcfg, opts...), blocks, deployer
}

// decisionSinks is the gate's decision hook as a table, one row per
// defender: the paths it watches (every path when all is set) and the
// sink fed with every decision — whether its path is watched, the booking
// reference (pnr parameter) it names, the attribution and the verdict.
// Each defender embeds its own one-row table, whose promoted OnDecision
// wires it into a gate alone; NewTargetGate concatenates them.
type decisionSinks []struct {
	paths []string
	all   bool
	feed  func(watched bool, ref string, info httpgate.ClientInfo, deniedBy string)
}

// OnDecision reads path and booking reference once and feeds every row.
func (s decisionSinks) OnDecision(r *http.Request, info httpgate.ClientInfo, deniedBy string) {
	path, ref := r.URL.Path, httpgate.QueryValue(r, "pnr")
	for _, row := range s {
		row.feed(row.all || slices.Contains(row.paths, path), ref, info, deniedBy)
	}
}

// StartTarget boots the defended server on an ephemeral 127.0.0.1 port.
func StartTarget(cfg TargetConfig) (*Target, error) {
	gate, blocks, deployer := NewTargetGate(cfg)

	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loadgen: target listen: %w", err)
	}
	srv := &http.Server{Handler: gate.Wrap(backend)}
	go func() { _ = srv.Serve(ln) }()
	return &Target{
		Gate:     gate,
		Blocks:   blocks,
		Deployer: deployer,
		URL:      "http://" + ln.Addr().String(),
		srv:      srv,
		ln:       ln,
	}, nil
}

// Close shuts the server down.
func (t *Target) Close() error { return t.srv.Close() }
