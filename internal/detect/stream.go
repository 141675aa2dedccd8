package detect

import (
	"sort"
	"sync"
	"time"

	"funabuse/internal/signal"
	"funabuse/internal/weblog"
)

// Signal names FlaggedSignal reports.
const (
	SignalRate        = "rate"
	SignalDistinctIPs = "distinct-ips"
)

// StreamConfig tunes a StreamMonitor.
//
// Besides the rate signal the monitor always runs the rotation signal: an
// identity whose estimated distinct source IPs reach
// streamDistinctThreshold is flagged, since a client whose requests arrive
// from ever-changing residential exits is behind a proxy pool. Both
// signals read a trailing window of streamRateWindow.
type StreamConfig struct {
	// RateThreshold flags an identity whose in-window request count
	// reaches it — the classical velocity signal, evaluated online. Zero
	// disables it.
	RateThreshold int

	// rateWindow and distinctThreshold override streamRateWindow and
	// streamDistinctThreshold; only in-package tests set them, to age
	// state out or reach a threshold in a few requests.
	rateWindow        time.Duration
	distinctThreshold float64
}

const (
	// streamRateWindow is the trailing window of both signals.
	streamRateWindow = time.Hour
	// streamDistinctThreshold is the distinct-exit count that flags an
	// identity as rotating.
	streamDistinctThreshold = 8
)

// StreamMonitor is the online counterpart of the offline session
// detectors: it consumes the request stream one event at a time through a
// signal.Engine and flags an identity the first time it crosses a
// threshold. Flags are durable: the engine's working memory is swept as
// traffic ages out, but the flagged set survives, so post-hoc evaluation
// can ask "was this client ever flagged?". It is safe for concurrent use.
//
// Identities are keyed by (fingerprint, cookie). Cookie-holding humans
// each get a private key, so a popular device fingerprint shared by many
// real users cannot pool their IPs into a false rotation signal; the
// cookieless keyspace — where per-request IP rotation actually shows up —
// is populated only by clients that discard cookies.
type StreamMonitor struct {
	cfg    StreamConfig
	engine *signal.Engine

	mu      sync.Mutex
	flagged map[string]string // identity -> first signal that fired
}

// NewStreamMonitor returns a monitor with the given thresholds.
func NewStreamMonitor(cfg StreamConfig) *StreamMonitor {
	if cfg.rateWindow <= 0 {
		cfg.rateWindow = streamRateWindow
	}
	if cfg.distinctThreshold <= 0 {
		cfg.distinctThreshold = streamDistinctThreshold
	}
	return &StreamMonitor{
		cfg: cfg,
		engine: signal.NewEngine(signal.EngineConfig{
			Window:            cfg.rateWindow,
			DistinctPrecision: signal.DefaultDistinctPrecision,
		}),
		flagged: make(map[string]string),
	}
}

// IdentityKey is the monitor's client identity for a request: the
// fingerprint as 16 hex digits, "|", the cookie.
func IdentityKey(r weblog.Request) string {
	var buf [64]byte
	b := append(weblog.AppendU64Hex(buf[:0], r.Fingerprint), '|')
	return string(append(b, r.Cookie...))
}

// Observe feeds one request through the monitor and reports whether its
// identity is flagged as of this event.
func (m *StreamMonitor) Observe(r weblog.Request) bool {
	key := IdentityKey(r)
	rate := m.engine.ObserveAttr(key, string(r.IP), r.Time)

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, done := m.flagged[key]; done {
		return true
	}
	if m.cfg.RateThreshold > 0 && rate >= m.cfg.RateThreshold {
		m.flagged[key] = SignalRate
		return true
	}
	if d := m.engine.Distinct(key); d >= m.cfg.distinctThreshold {
		m.flagged[key] = SignalDistinctIPs
		return true
	}
	return false
}

// Flagged reports whether the identity was ever flagged.
func (m *StreamMonitor) Flagged(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.flagged[key]
	return ok
}

// FlaggedSignal returns the first signal that fired for key, or "".
func (m *StreamMonitor) FlaggedSignal(key string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flagged[key]
}

// FlaggedKeys returns every flagged identity, sorted.
func (m *StreamMonitor) FlaggedKeys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.flagged))
	for k := range m.flagged {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
