package detect

import (
	"fmt"
	"testing"
	"time"

	"funabuse/internal/weblog"
)

var accountArmT0 = time.Date(2022, time.December, 1, 0, 0, 0, 0, time.UTC)

// accountSession builds a session of n requests for one actor spread
// over dur, observing each request into arm unless it is nil.
func accountSession(arm *AccountArm, actorID string, n int, dur time.Duration) *weblog.Session {
	s := &weblog.Session{Key: actorID}
	for i := 0; i < n; i++ {
		r := weblog.Request{
			Time:    accountArmT0.Add(dur * time.Duration(i) / time.Duration(n)),
			Path:    "/search",
			ActorID: actorID,
		}
		if arm != nil {
			arm.ObserveRequest(r)
		}
		s.Requests = append(s.Requests, r)
	}
	return s
}

func TestAccountArmFlagsThinHighVelocity(t *testing.T) {
	arm := NewAccountArm(nil)

	// A scripted account: thousands of requests inside one day.
	bot := accountSession(arm, "bot-1", 2500, 24*time.Hour)
	// An organic new account: thin history, but low volume.
	newbie := accountSession(arm, "human-1", 30, 24*time.Hour)
	// A veteran account: high volume but with months of history.
	veteran := accountSession(arm, "vet-1", 2500, 60*24*time.Hour)

	if v := arm.Judge(bot); !v.Flagged {
		t.Fatalf("thin high-velocity account not flagged: %+v", v)
	}
	if v := arm.Judge(newbie); v.Flagged {
		t.Fatalf("organic new account flagged: %+v", v)
	}
	if v := arm.Judge(veteran); v.Flagged {
		t.Fatalf("aged account flagged: %+v", v)
	}
}

func TestAccountArmKeysByCookieWhenNoActorID(t *testing.T) {
	arm := NewAccountArm(nil)
	s := &weblog.Session{Key: "c-1"}
	for i := 0; i < accountMinRequests; i++ {
		r := weblog.Request{
			Time:   accountArmT0.Add(time.Duration(i) * time.Second),
			Path:   "/search",
			Cookie: "c-1",
		}
		arm.ObserveRequest(r)
		s.Requests = append(s.Requests, r)
	}
	if v := arm.Judge(s); !v.Flagged {
		t.Fatalf("cookie-keyed account not flagged: %+v", v)
	}
	// Fully anonymous sessions are invisible to the arm.
	anon := &weblog.Session{Requests: []weblog.Request{{Time: accountArmT0, Path: "/search"}}}
	if v := arm.Judge(anon); v.Flagged {
		t.Fatal("anonymous session flagged by account arm")
	}
}

func TestAccountArmInRegistry(t *testing.T) {
	arm := NewAccountArm(nil)
	var reqs []weblog.Request
	var sessions []*weblog.Session
	for i := 0; i < 3; i++ {
		s := accountSession(nil, fmt.Sprintf("idle-%d", i), 5, time.Minute)
		sessions = append(sessions, s)
		reqs = append(reqs, s.Requests...)
	}
	hot := accountSession(nil, "hot-1", accountMinRequests, time.Hour)
	reqs = append(reqs, hot.Requests...)
	// Observe feeds the arm the request stream; sessions are judged after.
	Observe([]Arm{arm}, reqs, append(sessions, hot))
	for _, s := range sessions {
		if arm.Judge(s).Flagged {
			t.Fatalf("idle account flagged")
		}
	}
	if !arm.Judge(hot).Flagged {
		t.Fatal("thin high-velocity account not flagged after Observe")
	}
}
