package detect

import (
	"testing"
	"time"

	"funabuse/internal/weblog"
)

var g0 = time.Date(2024, time.December, 2, 10, 0, 0, 0, time.UTC)

func graphSession(paths ...string) *weblog.Session {
	s := &weblog.Session{Key: "k"}
	for i, p := range paths {
		s.Requests = append(s.Requests, weblog.Request{
			Time: g0.Add(time.Duration(i) * 10 * time.Minute),
			Path: p, Method: "POST", Status: 200,
		})
	}
	return s
}

func TestGraphRulesFlagDegenerateLoop(t *testing.T) {
	rules := GraphRules{}
	// The manual-spinner signature: nothing but reservation posts, at
	// human pace, in one cookie session.
	s := graphSession("/booking/hold", "/booking/hold", "/booking/hold",
		"/booking/hold", "/booking/hold", "/booking/hold")
	v := rules.JudgeSession(s)
	if !v.Flagged || v.Reason != "degenerate-navigation" {
		t.Fatalf("verdict %+v", v)
	}
}

func TestGraphRulesPassOrganicJourney(t *testing.T) {
	rules := GraphRules{}
	s := graphSession("/search", "/search/results/page1", "/flight/FL100",
		"/search/results/page2", "/flight/FL200", "/booking/hold")
	if v := rules.JudgeSession(s); v.Flagged {
		t.Fatalf("organic journey flagged: %+v", v)
	}
}

func TestGraphRulesIgnoreShortSessions(t *testing.T) {
	rules := GraphRules{}
	// Two holds in one session: a legitimate customer rebooking. Too
	// short to carry signal.
	s := graphSession("/booking/hold", "/booking/hold")
	if v := rules.JudgeSession(s); v.Flagged {
		t.Fatalf("short session flagged: %+v", v)
	}
}

func TestGraphRulesExemptExploratorySessions(t *testing.T) {
	rules := GraphRules{}
	// Many nodes visited: even with one dominant edge the walk is
	// exploratory (e.g. paging through results).
	s := graphSession("/a", "/b", "/b", "/b", "/b", "/c", "/d", "/e")
	if v := rules.JudgeSession(s); v.Flagged {
		t.Fatalf("exploratory session flagged: %+v", v)
	}
}

func TestGraphRulesTwoNodePingPong(t *testing.T) {
	rules := GraphRules{}
	// Availability-check + hold alternation: two nodes, two edges, 1 bit
	// of entropy, dominant share 0.5 — repetitive but balanced, and the
	// dominant-share bar keeps it unflagged at default thresholds.
	s := graphSession("/availability", "/booking/hold", "/availability",
		"/booking/hold", "/availability", "/booking/hold")
	if v := rules.JudgeSession(s); v.Flagged {
		t.Fatalf("balanced alternation flagged: %+v", v)
	}
}
