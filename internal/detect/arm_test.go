package detect

import (
	"testing"
	"time"

	"funabuse/internal/fingerprint"
	"funabuse/internal/proxy"
	"funabuse/internal/weblog"
)

var armT0 = time.Date(2023, time.March, 1, 9, 0, 0, 0, time.UTC)

// browseSession is an unremarkable human journey.
func browseSession(actorID string) *weblog.Session {
	s := &weblog.Session{Key: "s-" + actorID}
	paths := []string{"/", "/search", "/flights", "/search", "/booking/hold"}
	for i, p := range paths {
		s.Requests = append(s.Requests, weblog.Request{
			Time: armT0.Add(time.Duration(i) * 20 * time.Second),
			IP:   "198.51.100.7", Fingerprint: 0xabc, Cookie: "c-" + actorID,
			Method: "GET", Path: p, Status: 200, ActorID: actorID,
		})
	}
	return s
}

// pumpSession hammers one sensitive endpoint.
func pumpSession(fp uint64, ip proxy.IP) *weblog.Session {
	s := &weblog.Session{Key: "pump"}
	for i := range 6 {
		s.Requests = append(s.Requests, weblog.Request{
			Time: armT0.Add(time.Duration(i) * time.Second),
			IP:   ip, Fingerprint: fp,
			Method: "POST", Path: "/checkin/boardingpass/sms", Status: 200,
		})
	}
	return s
}

type stubArm struct {
	name     string
	verdict  Verdict
	requests int
	sessions int
}

func (a *stubArm) Name() string                   { return a.name }
func (a *stubArm) Judge(*weblog.Session) Verdict  { return a.verdict }
func (a *stubArm) ObserveRequest(weblog.Request)  { a.requests++ }
func (a *stubArm) ObserveSession(*weblog.Session) { a.sessions++ }

func TestRegistryOrderAndDuplicates(t *testing.T) {
	r := NewRegistry(&stubArm{name: "a"}, &stubArm{name: "b"})
	r.MustRegister(&stubArm{name: "c"})
	var got []string
	for _, a := range r.Arms() {
		got = append(got, a.Name())
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" || r.Len() != 3 {
		t.Fatalf("registration order lost: %v", got)
	}
	if err := r.Register(&stubArm{name: "b"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister did not panic on duplicate")
		}
	}()
	r.MustRegister(&stubArm{name: "a"})
}

func TestRegistryObserveDispatch(t *testing.T) {
	a := &stubArm{name: "observer"}
	r := NewRegistry(a)
	sessions := []*weblog.Session{browseSession("h1"), browseSession("h2")}
	var requests []weblog.Request
	for _, s := range sessions {
		requests = append(requests, s.Requests...)
	}
	r.Observe(requests, sessions)
	if a.requests != len(requests) || a.sessions != len(sessions) {
		t.Fatalf("dispatch miscounted: %d requests %d sessions", a.requests, a.sessions)
	}
}

func TestVolumeAndNavGraphArmsMatchAdapters(t *testing.T) {
	s := browseSession("h1")
	va := VolumeArm{Rules: DefaultVolumeRules()}
	if got, want := va.Judge(s), va.Rules.Judge(weblog.Extract(s)); got != want {
		t.Fatalf("VolumeArm diverges from VolumeRules.Judge: %+v vs %+v", got, want)
	}
	ga := NavGraphArm{Rules: GraphRules{}}
	if got, want := ga.Judge(s), ga.Rules.JudgeSession(s); got != want {
		t.Fatalf("NavGraphArm diverges from GraphRules.JudgeSession: %+v vs %+v", got, want)
	}
}

func TestFingerprintArm(t *testing.T) {
	rules := NewFingerprintRules()
	rules.CheckConsistency = false
	prints := map[uint64]fingerprint.Fingerprint{
		7: {Webdriver: true},
	}
	arm := FingerprintArm{
		Rules: rules,
		Lookup: func(hash uint64) (fingerprint.Fingerprint, bool) {
			f, ok := prints[hash]
			return f, ok
		},
	}
	bot := pumpSession(7, "203.0.113.1")
	if v := arm.Judge(bot); !v.Flagged || v.Reason != "fp-artifact" {
		t.Fatalf("webdriver fingerprint not flagged: %+v", v)
	}
	// Unknown hashes are skipped, not flagged.
	if v := arm.Judge(pumpSession(8, "203.0.113.1")); v.Flagged {
		t.Fatalf("unknown fingerprint flagged: %+v", v)
	}
}

func TestAnyArmFirstFlagWins(t *testing.T) {
	a := AnyArm{ArmName: "combo", Members: []Arm{
		&stubArm{name: "cold"},
		&stubArm{name: "hot", verdict: Verdict{Flagged: true, Score: 0.9, Reason: "hot"}},
		&stubArm{name: "hotter", verdict: Verdict{Flagged: true, Score: 1, Reason: "hotter"}},
	}}
	if a.Name() != "combo" {
		t.Fatalf("name = %q", a.Name())
	}
	if v := a.Judge(&weblog.Session{}); !v.Flagged || v.Reason != "hot" {
		t.Fatalf("first flagging member should win: %+v", v)
	}
	cold := AnyArm{ArmName: "cold", Members: []Arm{&stubArm{name: "c1"}, &stubArm{name: "c2"}}}
	if v := cold.Judge(&weblog.Session{}); v.Flagged {
		t.Fatalf("no member flagged but combo did: %+v", v)
	}
}

func TestWeakSignal(t *testing.T) {
	if w := WeakSignal(browseSession("h1")); w != 0 {
		t.Fatalf("browsing session should carry no weak signal, got %v", w)
	}
	if w := WeakSignal(pumpSession(1, "203.0.113.9")); w < 0.2 {
		t.Fatalf("sensitive-POST hammering session should score, got %v", w)
	}
	if w := WeakSignal(&weblog.Session{}); w != 0 {
		t.Fatalf("empty session scored %v", w)
	}
}
