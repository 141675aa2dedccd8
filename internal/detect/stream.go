package detect

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"funabuse/internal/obs"
	"funabuse/internal/signal"
	"funabuse/internal/weblog"
)

// StreamAlert is one online detection decision, journaled at the moment
// the stream crossed a threshold. Alerts are durable: the signal engine's
// working memory is swept as traffic ages out, but the journal survives,
// so post-hoc evaluation can ask "was this client ever flagged?".
type StreamAlert struct {
	// Key is the client identity (see IdentityKey).
	Key  string
	Time time.Time
	// Signal names the threshold that fired.
	Signal string
	// Value is the signal reading at firing time.
	Value float64
}

// Signal names used in StreamAlert.
const (
	SignalRate        = "rate"
	SignalDistinctIPs = "distinct-ips"
)

// StreamConfig tunes a StreamMonitor. Zero thresholds disable the
// corresponding signal.
//
// The alert journal holds at most maxStreamAlerts entries: an attacker
// rotating identities must not grow it without limit. Past the cap,
// further alerts still flag their identity (detection is unaffected) but
// are not journaled, and DroppedAlerts counts them.
type StreamConfig struct {
	// RateWindow is the trailing window for the per-identity request
	// rate; non-positive means one hour.
	RateWindow time.Duration
	// RateThreshold flags an identity whose in-window request count
	// reaches it — the classical velocity signal, evaluated online.
	RateThreshold int
	// DistinctThreshold flags an identity whose estimated distinct source
	// IPs reach it — the rotation signal: a client whose requests arrive
	// from ever-changing residential exits is behind a proxy pool.
	DistinctThreshold float64

	// maxAlerts overrides the alert journal's cap; only in-package tests
	// set it, to reach the cap in a few requests.
	maxAlerts int
}

// StreamMonitor is the online counterpart of the offline session
// detectors: it consumes the request stream one event at a time through a
// signal.Engine and journals an alert the first time an identity crosses a
// threshold. It is safe for concurrent use.
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
	alerts  []StreamAlert

	dropped atomic.Uint64
}

// NewStreamMonitor returns a monitor with the given thresholds.
func NewStreamMonitor(cfg StreamConfig) *StreamMonitor {
	if cfg.RateWindow <= 0 {
		cfg.RateWindow = time.Hour
	}
	if cfg.maxAlerts <= 0 {
		cfg.maxAlerts = maxStreamAlerts
	}
	return &StreamMonitor{
		cfg: cfg,
		engine: signal.NewEngine(signal.EngineConfig{
			Window:       cfg.RateWindow,
			DisableSurge: true,
			DisableTopK:  true,
		}),
		flagged: make(map[string]string),
	}
}

// maxStreamAlerts is the alert journal's cap.
const maxStreamAlerts = 1 << 16

// IdentityKey is the monitor's client identity for a request.
func IdentityKey(r weblog.Request) string {
	return u64hex(r.Fingerprint) + "|" + r.Cookie
}

func u64hex(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
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
		m.flag(key, SignalRate, float64(rate), r.Time)
		return true
	}
	if m.cfg.DistinctThreshold > 0 {
		if d := m.engine.Distinct(key); d >= m.cfg.DistinctThreshold {
			m.flag(key, SignalDistinctIPs, d, r.Time)
			return true
		}
	}
	return false
}

// flag marks key as flagged and journals its first alert, unless the
// journal is at its cap — then the alert is counted as dropped instead.
// Flagging is never dropped: only the journal record is. Callers hold m.mu.
func (m *StreamMonitor) flag(key, sig string, value float64, at time.Time) {
	m.flagged[key] = sig
	if len(m.alerts) >= m.cfg.maxAlerts {
		m.dropped.Add(1)
		return
	}
	m.alerts = append(m.alerts, StreamAlert{Key: key, Time: at, Signal: sig, Value: value})
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

// Alerts returns the journal in firing order.
func (m *StreamMonitor) Alerts() []StreamAlert {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]StreamAlert, len(m.alerts))
	copy(out, m.alerts)
	return out
}

// DroppedAlerts returns how many alerts were not journaled because the
// journal was at its cap. The identities behind them are still flagged.
func (m *StreamMonitor) DroppedAlerts() uint64 { return m.dropped.Load() }

// Observed returns how many requests the monitor consumed.
func (m *StreamMonitor) Observed() uint64 { return m.engine.Observed() }

// StreamStats is the monitor's observability snapshot on the obs
// contract.
type StreamStats struct {
	// Observed is how many requests the monitor consumed.
	Observed uint64
	// Flagged is how many identities have crossed a threshold.
	Flagged int
	// Alerts is the journal's current length; Dropped counts alerts the
	// journal cap kept out of it.
	Alerts  int
	Dropped uint64
	// TrackedKeys is the engine's live per-identity state count.
	TrackedKeys int
}

// Stats snapshots the monitor's counters.
func (m *StreamMonitor) Stats() StreamStats {
	m.mu.Lock()
	flagged, alerts := len(m.flagged), len(m.alerts)
	m.mu.Unlock()
	return StreamStats{
		Observed:    m.Observed(),
		Flagged:     flagged,
		Alerts:      alerts,
		Dropped:     m.DroppedAlerts(),
		TrackedKeys: m.engine.TrackedKeys(),
	}
}

// Collector exposes the monitor on the obs snapshot contract. This
// supersedes polling Observed/DroppedAlerts and counting FlaggedKeys by
// hand; those accessors remain as thin adapters.
func (m *StreamMonitor) Collector() obs.Collector {
	return obs.CollectorFunc(func(dst []obs.Sample) []obs.Sample {
		st := m.Stats()
		return append(dst,
			obs.Sample{Name: "stream_observed_total", Value: float64(st.Observed)},
			obs.Sample{Name: "stream_flagged_identities", Value: float64(st.Flagged)},
			obs.Sample{Name: "stream_alerts_journaled", Value: float64(st.Alerts)},
			obs.Sample{Name: "stream_alerts_dropped_total", Value: float64(st.Dropped)},
			obs.Sample{Name: "stream_tracked_keys", Value: float64(st.TrackedKeys)},
		)
	})
}
