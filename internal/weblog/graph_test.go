package weblog

import (
	"math"
	"testing"
	"time"
)

func sessionOf(paths ...string) *Session {
	s := &Session{Key: "k"}
	for i, p := range paths {
		s.Requests = append(s.Requests, Request{
			Time: t0.Add(time.Duration(i) * time.Minute),
			Path: p, Method: "GET", Status: 200,
		})
	}
	return s
}

func TestExtractGraphDegenerateLoop(t *testing.T) {
	s := sessionOf("/hold", "/hold", "/hold", "/hold", "/hold")
	f := ExtractGraph(s)
	if f.Nodes != 1 || f.Transitions != 4 {
		t.Fatalf("graph %+v", f)
	}
	if f.TransitionEntropy != 0 {
		t.Fatalf("entropy %v for a pure loop", f.TransitionEntropy)
	}
	if f.DominantEdgeShare != 1 {
		t.Fatalf("shares %+v", f)
	}
}

func TestExtractGraphOrganicWalk(t *testing.T) {
	s := sessionOf("/search", "/search/results", "/flight/1", "/search/results", "/flight/2", "/hold")
	f := ExtractGraph(s)
	if f.Nodes != 5 {
		t.Fatalf("nodes %d", f.Nodes)
	}
	if f.TransitionEntropy < 2 {
		t.Fatalf("entropy %v, organic walk should be diverse", f.TransitionEntropy)
	}
}

func TestExtractGraphSingleRequest(t *testing.T) {
	f := ExtractGraph(sessionOf("/only"))
	if f.Nodes != 1 || f.Transitions != 0 || f.TransitionEntropy != 0 {
		t.Fatalf("graph %+v", f)
	}
}

func TestExtractGraphEmptySession(t *testing.T) {
	f := ExtractGraph(&Session{Key: "empty"})
	if f != (GraphFeatures{}) {
		t.Fatalf("empty session should yield zero features, got %+v", f)
	}
}

func TestExtractGraphShortSessionAllocs(t *testing.T) {
	// Rotating attackers shatter into 0/1-request sessions, so the early
	// return must not build the node map.
	single := sessionOf("/only")
	empty := &Session{Key: "empty"}
	if n := testing.AllocsPerRun(100, func() {
		ExtractGraph(single)
		ExtractGraph(empty)
	}); n != 0 {
		t.Fatalf("short-session ExtractGraph allocates %v/op, want 0", n)
	}
}

func TestExtractGraphAllSelfLoops(t *testing.T) {
	// A walk that never leaves one path, long enough that the pre-fix code
	// paths all engage: one node, one edge, every transition a self-loop.
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = "/loop"
	}
	f := ExtractGraph(sessionOf(paths...))
	if f.Nodes != 1 || f.Transitions != 63 {
		t.Fatalf("graph %+v", f)
	}
	if f.DominantEdgeShare != 1 || f.TransitionEntropy != 0 {
		t.Fatalf("degenerate shares %+v", f)
	}
}

func TestExtractGraphAlternation(t *testing.T) {
	// A two-node ping-pong: two distinct edges, each 0.5 share: 1 bit.
	s := sessionOf("/a", "/b", "/a", "/b", "/a")
	f := ExtractGraph(s)
	if math.Abs(f.TransitionEntropy-1) > 1e-9 {
		t.Fatalf("entropy %v, want 1 bit", f.TransitionEntropy)
	}
	if f.DominantEdgeShare != 0.5 {
		t.Fatalf("dominant share %v", f.DominantEdgeShare)
	}
}
