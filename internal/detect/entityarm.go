package detect

import (
	"funabuse/internal/entitygraph"
	"funabuse/internal/weblog"
)

// EntityGraphArm is the structural-risk-amplification detector: sessions
// feed the entity-linkage graph (fingerprint and source-IP keys, linked
// by co-occurrence, scored by a weak-signal function), and a session is
// judged by whether any of its entities belongs to a flagged component.
// It catches what every per-session arm misses by construction — a
// distributed syndicate whose sessions are individually unremarkable but
// share rotating infrastructure.
type EntityGraphArm struct {
	Graph *entitygraph.Graph
	// Weak scores a session's low-confidence evidence; nil selects
	// WeakSignal.
	Weak func(s *weblog.Session) float64

	keys []string
}

// NewEntityGraphArm builds the arm over graph.
func NewEntityGraphArm(graph *entitygraph.Graph) *EntityGraphArm {
	return &EntityGraphArm{Graph: graph}
}

// Name implements Arm.
func (*EntityGraphArm) Name() string { return "entity graph" }

// ObserveSession implements SessionObserver: the session's entities
// co-occur, weighted by the session's weak-signal score. Zero-signal
// sessions are not observed at all: an ordinary browsing session carries
// no evidence, and letting it link entities anyway would braid the whole
// human population together through shared ISP exits and popular device
// prints — the graph amplifies weak signals, so only sessions carrying
// one may wire infrastructure together.
func (a *EntityGraphArm) ObserveSession(s *weblog.Session) {
	weak := a.Weak
	if weak == nil {
		weak = WeakSignal
	}
	w := weak(s)
	if w <= 0 {
		return
	}
	a.keys = SessionEntityKeys(s, a.keys[:0])
	a.Graph.Observe(a.keys, w)
}

// Judge implements Arm.
func (a *EntityGraphArm) Judge(s *weblog.Session) Verdict {
	keys := SessionEntityKeys(s, nil)
	for _, k := range keys {
		if a.Graph.Flagged(k) {
			return Verdict{Flagged: true, Reason: "entity-component"}
		}
	}
	return Verdict{}
}

// SessionEntityKeys appends the session's entity keys to buf and returns
// it: each distinct fingerprint and each distinct source IP. The first
// key is the anchor the graph links the rest against.
func SessionEntityKeys(s *weblog.Session, buf []string) []string {
	appendUnique := func(keys []string, k string) []string {
		for _, have := range keys {
			if have == k {
				return keys
			}
		}
		return append(keys, k)
	}
	for _, r := range s.Requests {
		buf = appendUnique(buf, entitygraph.FingerprintKey(r.Fingerprint))
	}
	for _, r := range s.Requests {
		buf = appendUnique(buf, entitygraph.IPKey(string(r.IP)))
	}
	return buf
}
