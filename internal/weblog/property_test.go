package weblog

import (
	"testing"
	"testing/quick"
	"time"

	"funabuse/internal/proxy"
)

// randomRequests decodes a byte string into a plausible request stream:
// each byte selects a client and a time step.
func randomRequests(raw []byte) []Request {
	out := make([]Request, 0, len(raw))
	at := t0
	for _, b := range raw {
		at = at.Add(time.Duration(b%64) * time.Minute)
		client := int(b >> 6) // 4 clients
		out = append(out, Request{
			Time:   at,
			IP:     proxy.IP("10.0.0." + string(rune('1'+client))),
			Cookie: "c" + string(rune('a'+client)),
			Method: "GET",
			Path:   "/p" + string(rune('0'+b%5)),
			Status: 200,
			Actor:  ActorHuman,
		})
	}
	return out
}

func TestSessionizeConservesRequests(t *testing.T) {
	f := func(raw []byte) bool {
		reqs := randomRequests(raw)
		sessions := Sessionize(reqs, DefaultSessionGap)
		total := 0
		for _, s := range sessions {
			total += len(s.Requests)
		}
		return total == len(reqs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionizeNoOversizedGapsInside(t *testing.T) {
	f := func(raw []byte) bool {
		reqs := randomRequests(raw)
		gap := 30 * time.Minute
		for _, s := range Sessionize(reqs, gap) {
			for i := 1; i < len(s.Requests); i++ {
				if s.Requests[i].Time.Sub(s.Requests[i-1].Time) > gap {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionizeSingleClientPerSession(t *testing.T) {
	f := func(raw []byte) bool {
		reqs := randomRequests(raw)
		for _, s := range Sessionize(reqs, DefaultSessionGap) {
			cookie := s.Requests[0].Cookie
			for _, r := range s.Requests {
				if r.Cookie != cookie {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionizeTimeOrderedWithinSession(t *testing.T) {
	f := func(raw []byte) bool {
		reqs := randomRequests(raw)
		// Shuffle-ish: reverse the stream; Sessionize must re-order.
		for i, j := 0, len(reqs)-1; i < j; i, j = i+1, j-1 {
			reqs[i], reqs[j] = reqs[j], reqs[i]
		}
		for _, s := range Sessionize(reqs, DefaultSessionGap) {
			for i := 1; i < len(s.Requests); i++ {
				if s.Requests[i].Time.Before(s.Requests[i-1].Time) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractSharesSumProperty(t *testing.T) {
	f := func(raw []byte) bool {
		reqs := randomRequests(raw)
		for _, s := range Sessionize(reqs, DefaultSessionGap) {
			feat := Extract(s)
			if feat.GETShare < 0 || feat.GETShare > 1 || feat.POSTShare < 0 || feat.POSTShare > 1 {
				return false
			}
			if feat.GETShare+feat.POSTShare > 1.0000001 {
				return false
			}
			if feat.UniquePaths > feat.RequestCount {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphEntropyBoundsProperty(t *testing.T) {
	f := func(raw []byte) bool {
		reqs := randomRequests(raw)
		for _, s := range Sessionize(reqs, DefaultSessionGap) {
			g := ExtractGraph(s)
			if g.TransitionEntropy < 0 {
				return false
			}
			if g.DominantEdgeShare < 0 || g.DominantEdgeShare > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
