package detect

import (
	"strings"
	"testing"
	"time"

	"funabuse/internal/fingerprint"
	"funabuse/internal/proxy"
	"funabuse/internal/simrand"
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

func TestRegistryObserveDispatch(t *testing.T) {
	a := &stubArm{name: "observer"}
	sessions := []*weblog.Session{browseSession("h1"), browseSession("h2")}
	var requests []weblog.Request
	for _, s := range sessions {
		requests = append(requests, s.Requests...)
	}
	Observe([]Arm{a}, requests, sessions)
	if a.requests != len(requests) || a.sessions != len(sessions) {
		t.Fatalf("dispatch miscounted: %d requests %d sessions", a.requests, a.sessions)
	}
}

func TestVolumeAndNavGraphArmsMatchAdapters(t *testing.T) {
	s := browseSession("h1")
	if got, want := (VolumeArm{}).Judge(s), (VolumeRules{}).Judge(weblog.Extract(s)); got != want {
		t.Fatalf("VolumeArm diverges from VolumeRules.Judge: %+v vs %+v", got, want)
	}
}

func TestFingerprintArm(t *testing.T) {
	g := fingerprint.NewGenerator(simrand.New(1))
	prints := map[uint64]fingerprint.Fingerprint{
		7: g.NaiveHeadless(),
		9: g.Organic(),
	}
	arm := FingerprintArm{
		Lookup: func(hash uint64) (fingerprint.Fingerprint, bool) {
			f, ok := prints[hash]
			return f, ok
		},
	}
	bot := pumpSession(7, "203.0.113.1")
	if v := arm.Judge(bot); !v.Flagged || !strings.HasPrefix(v.Reason, "fp-inconsistent:") {
		t.Fatalf("headless fingerprint not flagged: %+v", v)
	}
	if v := arm.Judge(pumpSession(9, "203.0.113.1")); v.Flagged {
		t.Fatalf("clean organic print flagged: %+v", v)
	}
	// Unknown hashes are skipped, not flagged.
	if v := arm.Judge(pumpSession(8, "203.0.113.1")); v.Flagged {
		t.Fatalf("unknown fingerprint flagged: %+v", v)
	}
}

func TestAnyArmFirstFlagWins(t *testing.T) {
	a := AnyArm{ArmName: "combo", Members: []Arm{
		&stubArm{name: "cold"},
		&stubArm{name: "hot", verdict: Verdict{Flagged: true, Reason: "hot"}},
		&stubArm{name: "hotter", verdict: Verdict{Flagged: true, Reason: "hotter"}},
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
