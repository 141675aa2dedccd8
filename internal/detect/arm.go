package detect

import (
	"fmt"

	"funabuse/internal/fingerprint"
	"funabuse/internal/weblog"
)

// Arm is the unified detector interface: every detector family —
// behaviour rules, classifiers, fingerprint checks, stream signals, the
// entity-linkage graph — judges a session under one contract, so the
// comparison experiment and the StreamMonitor iterate a registry instead
// of hand-rolled per-detector plumbing. Stateful arms additionally
// implement RequestObserver or SessionObserver to consume the traffic
// before judging.
//
// Each arm wraps one detector's own entry point (VolumeRules.Judge,
// GraphRules.JudgeSession, FingerprintRules.Judge, ...). The
// application's request path and the case-B and ablation experiments call
// those directly; the detection comparison and the StreamMonitor judge
// through arms.
type Arm interface {
	// Name labels the arm in reports and registries.
	Name() string
	// Judge evaluates one session.
	Judge(s *weblog.Session) Verdict
}

// RequestObserver is implemented by arms that consume the raw request
// stream (the stream monitor, the entity graph's online feed, the
// account store) before sessions are judged.
type RequestObserver interface {
	ObserveRequest(r weblog.Request)
}

// SessionObserver is implemented by arms that accumulate cross-session
// state from whole sessions (the entity graph's offline feed).
type SessionObserver interface {
	ObserveSession(s *weblog.Session)
}

// Registry is an ordered collection of arms. Registration order is
// iteration order, so a registry-driven experiment reports rows in the
// order the arms were registered.
type Registry struct {
	arms  []Arm
	names map[string]bool
}

// NewRegistry returns a registry holding arms, in order. It panics on a
// duplicate name — two arms reporting under one label is a construction
// bug, not a runtime condition.
func NewRegistry(arms ...Arm) *Registry {
	r := &Registry{names: make(map[string]bool)}
	for _, a := range arms {
		r.MustRegister(a)
	}
	return r
}

// Register appends an arm, rejecting duplicate names.
func (r *Registry) Register(a Arm) error {
	if r.names == nil {
		r.names = make(map[string]bool)
	}
	if r.names[a.Name()] {
		return fmt.Errorf("detect: arm %q already registered", a.Name())
	}
	r.names[a.Name()] = true
	r.arms = append(r.arms, a)
	return nil
}

// MustRegister is Register, panicking on error.
func (r *Registry) MustRegister(a Arm) {
	if err := r.Register(a); err != nil {
		panic(err)
	}
}

// Arms returns the registered arms in registration order.
func (r *Registry) Arms() []Arm {
	out := make([]Arm, len(r.arms))
	copy(out, r.arms)
	return out
}

// Len returns the arm count.
func (r *Registry) Len() int { return len(r.arms) }

// Observe feeds the traffic to every stateful arm: each request to the
// RequestObservers (in stream order), then each session to the
// SessionObservers. Call it once before judging; stateless arms ignore
// it.
func (r *Registry) Observe(requests []weblog.Request, sessions []*weblog.Session) {
	for _, a := range r.arms {
		if ro, ok := a.(RequestObserver); ok {
			for _, req := range requests {
				ro.ObserveRequest(req)
			}
		}
		if so, ok := a.(SessionObserver); ok {
			for _, s := range sessions {
				so.ObserveSession(s)
			}
		}
	}
}

// VolumeArm adapts VolumeRules: the classical session-volume detector.
type VolumeArm struct {
	Rules VolumeRules
}

// Name implements Arm.
func (VolumeArm) Name() string { return "volume rules" }

// Judge implements Arm.
func (a VolumeArm) Judge(s *weblog.Session) Verdict {
	return a.Rules.Judge(weblog.Extract(s))
}

// NavGraphArm adapts GraphRules: the navigation-graph degeneracy
// detector.
type NavGraphArm struct {
	Rules GraphRules
}

// Name implements Arm.
func (NavGraphArm) Name() string { return "navigation graph" }

// Judge implements Arm.
func (a NavGraphArm) Judge(s *weblog.Session) Verdict {
	return a.Rules.JudgeSession(s)
}

// PointModel is the trained-classifier surface ClassifierArm wraps; both
// LogReg and NaiveBayes satisfy it.
type PointModel interface {
	Judge(x []float64) Verdict
}

// ClassifierArm adapts a trained classifier over the session feature
// vector.
type ClassifierArm struct {
	ArmName string
	Model   PointModel
}

// Name implements Arm.
func (a ClassifierArm) Name() string { return a.ArmName }

// Judge implements Arm.
func (a ClassifierArm) Judge(s *weblog.Session) Verdict {
	return a.Model.Judge(weblog.Extract(s).Vector())
}

// FingerprintArm adapts FingerprintRules: each request's fingerprint
// hash is resolved to its full print through Lookup (the application's
// collector-side store) and run through the knowledge-based checks.
type FingerprintArm struct {
	Rules *FingerprintRules
	// Lookup resolves a hash to the full fingerprint; ok=false skips the
	// request.
	Lookup func(hash uint64) (fingerprint.Fingerprint, bool)
}

// Name implements Arm.
func (FingerprintArm) Name() string { return "fingerprint checks" }

// Judge implements Arm.
func (a FingerprintArm) Judge(s *weblog.Session) Verdict {
	for _, r := range s.Requests {
		f, ok := a.Lookup(r.Fingerprint)
		if !ok {
			continue
		}
		if v := a.Rules.Judge(f, r.Fingerprint); v.Flagged {
			return v
		}
	}
	return Verdict{}
}

// StreamArm adapts a StreamMonitor: requests feed the online monitor and
// a session is flagged when any of its identities was ever flagged.
type StreamArm struct {
	Monitor *StreamMonitor
}

// Name implements Arm.
func (StreamArm) Name() string { return "streaming signals" }

// ObserveRequest implements RequestObserver.
func (a StreamArm) ObserveRequest(r weblog.Request) { a.Monitor.Observe(r) }

// Judge implements Arm.
func (a StreamArm) Judge(s *weblog.Session) Verdict {
	for _, r := range s.Requests {
		if a.Monitor.Flagged(IdentityKey(r)) {
			return Verdict{Flagged: true, Score: 0.8, Reason: "stream:" + a.Monitor.FlaggedSignal(IdentityKey(r))}
		}
	}
	return Verdict{}
}

// AnyArm combines member arms with OR: the first flagging member's
// verdict wins. It is how composite rows ("volume + fingerprint") are
// expressed on the registry.
type AnyArm struct {
	ArmName string
	Members []Arm
}

// Name implements Arm.
func (a AnyArm) Name() string { return a.ArmName }

// Judge implements Arm.
func (a AnyArm) Judge(s *weblog.Session) Verdict {
	for _, m := range a.Members {
		if v := m.Judge(s); v.Flagged {
			return v
		}
	}
	return Verdict{}
}

// WeakSignal is the default low-confidence session score the entity
// graph amplifies: evidence far too weak to act on alone — a session
// concentrated on sensitive POST endpoints, or a near-degenerate walk
// just under the GraphRules thresholds — worth a fraction of a flag.
// Honest journeys wander through searches and availability pages, so
// they score at or near zero; a syndicate's shattered one-shot sessions
// each score a little, and the graph adds them up across the shared
// infrastructure.
func WeakSignal(s *weblog.Session) float64 {
	n := len(s.Requests)
	if n == 0 {
		return 0
	}
	sensitive := 0
	for _, r := range s.Requests {
		if r.Method == "POST" && SensitivePath(r.Path) {
			sensitive++
		}
	}
	share := float64(sensitive) / float64(n)
	var w float64
	switch {
	case share >= 0.8:
		w += 0.2
	case share >= 0.5:
		w += 0.1
	}
	if n >= 4 {
		if g := weblog.ExtractGraph(s); g.Nodes <= 2 && g.TransitionEntropy <= 1.2 {
			w += 0.1
		}
	}
	return w
}

// SensitivePath reports whether path is one of the functional-abuse
// surfaces weak-signal scoring watches (holds, OTP, boarding-pass SMS).
func SensitivePath(path string) bool {
	switch path {
	case "/booking/hold", "/booking/confirm", "/auth/otp", "/checkin/boardingpass/sms":
		return true
	}
	return false
}
