package detect

import (
	"funabuse/internal/weblog"
)

// GraphRules is the navigation-graph detector of the paper's Section V
// "advancing behavioural-based detection" direction: it flags sessions
// whose walk over the site is degenerately repetitive — a single endpoint
// hammered in a loop — regardless of volume or rate. It is the heuristic
// that catches the *manual* abuse of case study C, which keeps cookies,
// types at human speed and never trips a volume rule, but whose sessions
// consist of nothing but reservation posts.
type GraphRules struct{}

// Thresholds separating degenerate loops from organic browsing.
const (
	// graphMinTransitions is the minimum walk length before the rules
	// apply; very short sessions carry no signal.
	graphMinTransitions = 4
	// graphMaxEntropy flags walks at or below this transition entropy
	// (bits).
	graphMaxEntropy = 0.8
	// graphMinDominantShare flags walks whose single most frequent
	// transition carries at least this share.
	graphMinDominantShare = 0.8
	// graphMaxNodes restricts the rules to narrow walks; exploratory
	// sessions touching many pages are exempt however repetitive one edge
	// is.
	graphMaxNodes = 2
)

// Judge evaluates one session's navigation graph.
func (GraphRules) Judge(f weblog.GraphFeatures) Verdict {
	if f.Transitions < graphMinTransitions || f.Nodes > graphMaxNodes {
		return Verdict{}
	}
	if f.TransitionEntropy <= graphMaxEntropy && f.DominantEdgeShare >= graphMinDominantShare {
		return Verdict{Flagged: true, Reason: "degenerate-navigation"}
	}
	return Verdict{}
}

// JudgeSession extracts and evaluates in one step.
func (g GraphRules) JudgeSession(s *weblog.Session) Verdict {
	return g.Judge(weblog.ExtractGraph(s))
}
