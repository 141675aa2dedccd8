package weblog

import (
	"math"
)

// GraphFeatures summarises a session's navigation graph — the "local
// behavioural modelling, such as graph-based navigation analysis" the
// paper's Section V recommends. Nodes are paths, edges are observed
// transitions; the discriminative signals are the diversity (transition
// entropy) and the repetitiveness (dominant-edge share, self-loops) of the
// walk. A human booking journey wanders (search pages, flight pages, then
// a hold); an abuser's session hammers one endpoint in a degenerate loop.
type GraphFeatures struct {
	// Nodes is the number of distinct paths visited.
	Nodes int
	// Transitions is the total transition count (requests - 1).
	Transitions int
	// TransitionEntropy is the Shannon entropy (bits) of the transition
	// distribution; 0 for a session that repeats one move.
	TransitionEntropy float64
	// DominantEdgeShare is the most frequent transition's share.
	DominantEdgeShare float64
}

// ExtractGraph computes navigation-graph features for a session.
func ExtractGraph(s *Session) GraphFeatures {
	var f GraphFeatures
	if len(s.Requests) < 2 {
		// A 0- or 1-request session has no transitions and at most one
		// node; answering without the node map matters because rotating
		// attackers shatter into exactly these sessions, making this the
		// hottest path through the extractor.
		f.Nodes = len(s.Requests)
		return f
	}
	nodes := make(map[string]bool, len(s.Requests))
	for _, r := range s.Requests {
		nodes[r.Path] = true
	}
	f.Nodes = len(nodes)
	edges := make(map[[2]string]int, len(s.Requests)-1)
	for i := 1; i < len(s.Requests); i++ {
		edges[[2]string{s.Requests[i-1].Path, s.Requests[i].Path}]++
	}
	f.Transitions = len(s.Requests) - 1
	total := float64(f.Transitions)
	maxCount := 0
	for _, n := range edges {
		p := float64(n) / total
		f.TransitionEntropy -= p * math.Log2(p)
		if n > maxCount {
			maxCount = n
		}
	}
	f.DominantEdgeShare = float64(maxCount) / total
	return f
}
