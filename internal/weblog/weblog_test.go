package weblog

import (
	"fmt"
	"testing"
	"time"

	"funabuse/internal/proxy"
)

var t0 = time.Date(2022, time.May, 2, 10, 0, 0, 0, time.UTC)

func req(at time.Time, ip, cookie, method, path string, status int) Request {
	return Request{
		Time:   at,
		IP:     proxy.IP(ip),
		Cookie: cookie,
		Method: method,
		Path:   path,
		Status: status,
		Actor:  ActorHuman,
	}
}

func TestSessionizeByCookie(t *testing.T) {
	rs := []Request{
		req(t0, "1.1.1.1", "alice", "GET", "/search", 200),
		req(t0.Add(time.Minute), "2.2.2.2", "alice", "GET", "/flight/123", 200),
		req(t0.Add(2*time.Minute), "1.1.1.1", "bob", "GET", "/search", 200),
	}
	sessions := Sessionize(rs, 0)
	if len(sessions) != 2 {
		t.Fatalf("got %d sessions, want 2", len(sessions))
	}
	if len(sessions[0].Requests) != 2 {
		t.Fatalf("alice session has %d requests", len(sessions[0].Requests))
	}
}

func TestSessionizeFallsBackToIPAndPrint(t *testing.T) {
	a := req(t0, "1.1.1.1", "", "GET", "/a", 200)
	a.Fingerprint = 111
	b := req(t0.Add(time.Second), "1.1.1.1", "", "GET", "/b", 200)
	b.Fingerprint = 222
	sessions := Sessionize([]Request{a, b}, 0)
	if len(sessions) != 2 {
		t.Fatalf("distinct fingerprints merged into %d session(s)", len(sessions))
	}
}

func TestSessionizeSplitsOnGap(t *testing.T) {
	rs := []Request{
		req(t0, "1.1.1.1", "c", "GET", "/a", 200),
		req(t0.Add(10*time.Minute), "1.1.1.1", "c", "GET", "/b", 200),
		req(t0.Add(50*time.Minute), "1.1.1.1", "c", "GET", "/c", 200), // 40-min gap
	}
	sessions := Sessionize(rs, 30*time.Minute)
	if len(sessions) != 2 {
		t.Fatalf("got %d sessions, want 2", len(sessions))
	}
	if len(sessions[0].Requests) != 2 || len(sessions[1].Requests) != 1 {
		t.Fatalf("split sizes %d/%d", len(sessions[0].Requests), len(sessions[1].Requests))
	}
}

func TestSessionizeSortsUnorderedInput(t *testing.T) {
	rs := []Request{
		req(t0.Add(2*time.Minute), "1.1.1.1", "c", "GET", "/b", 200),
		req(t0, "1.1.1.1", "c", "GET", "/a", 200),
	}
	sessions := Sessionize(rs, 0)
	if len(sessions) != 1 {
		t.Fatalf("got %d sessions", len(sessions))
	}
	if sessions[0].Requests[0].Path != "/a" {
		t.Fatal("requests not time-ordered inside session")
	}
}

func TestSessionizeDeterministicOrder(t *testing.T) {
	var rs []Request
	for i := range 20 {
		rs = append(rs, req(t0, fmt.Sprintf("9.9.9.%d", i), "", "GET", "/x", 200))
	}
	a := Sessionize(rs, 0)
	b := Sessionize(rs, 0)
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatal("session order not deterministic")
		}
	}
}

func TestExtractBasicFeatures(t *testing.T) {
	rs := []Request{
		req(t0, "1.1.1.1", "c", "GET", "/search", 200),
		req(t0.Add(30*time.Second), "1.1.1.1", "c", "GET", "/search/results/page2", 200),
		req(t0.Add(60*time.Second), "1.1.1.1", "c", "POST", "/booking/hold", 200),
		req(t0.Add(90*time.Second), "1.1.1.1", "c", "GET", "/missing", 404),
	}
	s := Sessionize(rs, 0)[0]
	f := Extract(s)
	if f.RequestCount != 4 {
		t.Fatalf("RequestCount = %d", f.RequestCount)
	}
	if f.DurationSec != 90 {
		t.Fatalf("DurationSec = %v", f.DurationSec)
	}
	if f.GETShare != 0.75 || f.POSTShare != 0.25 {
		t.Fatalf("method shares %v/%v", f.GETShare, f.POSTShare)
	}
	if f.UniquePaths != 4 {
		t.Fatalf("UniquePaths = %d", f.UniquePaths)
	}
	if f.MaxPathDepth != 3 {
		t.Fatalf("MaxPathDepth = %d", f.MaxPathDepth)
	}
	if f.SearchShare != 0.5 {
		t.Fatalf("SearchShare = %v", f.SearchShare)
	}
	if f.ErrorShare != 0.25 {
		t.Fatalf("ErrorShare = %v", f.ErrorShare)
	}
	if f.MeanGapSec != 30 {
		t.Fatalf("MeanGapSec = %v", f.MeanGapSec)
	}
	if f.StdGapSec != 0 {
		t.Fatalf("StdGapSec = %v, want 0 for uniform gaps", f.StdGapSec)
	}
	wantRPM := 4.0 / 1.5
	if diff := f.ReqPerMinute - wantRPM; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ReqPerMinute = %v, want %v", f.ReqPerMinute, wantRPM)
	}
}

func TestExtractTrapHit(t *testing.T) {
	rs := []Request{
		req(t0, "1.1.1.1", "c", "GET", "/a", 200),
		req(t0.Add(time.Second), "1.1.1.1", "c", "GET", TrapPath, 200),
	}
	if f := Extract(Sessionize(rs, 0)[0]); !f.TrapHit {
		t.Fatal("trap hit not detected")
	}
}

func TestExtractSingleRequest(t *testing.T) {
	rs := []Request{req(t0, "1.1.1.1", "c", "GET", "/a", 200)}
	f := Extract(Sessionize(rs, 0)[0])
	if f.RequestCount != 1 || f.DurationSec != 0 {
		t.Fatalf("unexpected features %+v", f)
	}
	if f.ReqPerMinute != 60 {
		t.Fatalf("ReqPerMinute = %v for instantaneous session", f.ReqPerMinute)
	}
	if f.MeanGapSec != 0 || f.StdGapSec != 0 {
		t.Fatal("gap stats should be zero for single request")
	}
}

func TestExtractDistinctIPsAndPrints(t *testing.T) {
	a := req(t0, "1.1.1.1", "c", "GET", "/a", 200)
	a.Fingerprint = 1
	b := req(t0.Add(time.Second), "2.2.2.2", "c", "GET", "/b", 200)
	b.Fingerprint = 2
	f := Extract(Sessionize([]Request{a, b}, 0)[0])
	if f.DistinctIPs != 2 || f.DistinctPrints != 2 {
		t.Fatalf("distinct counts %d/%d", f.DistinctIPs, f.DistinctPrints)
	}
}

func TestNightShare(t *testing.T) {
	night := time.Date(2022, time.May, 2, 3, 0, 0, 0, time.UTC)
	rs := []Request{
		req(night, "1.1.1.1", "c", "GET", "/a", 200),
		req(night.Add(time.Minute), "1.1.1.1", "c", "GET", "/b", 200),
	}
	if f := Extract(Sessionize(rs, 0)[0]); f.NightShare != 1 {
		t.Fatalf("NightShare = %v", f.NightShare)
	}
}

func TestVectorMatchesNames(t *testing.T) {
	f := Features{RequestCount: 3, TrapHit: true}
	v := f.Vector()
	names := FeatureNames()
	if len(v) != len(names) {
		t.Fatalf("vector len %d != names len %d", len(v), len(names))
	}
	if v[0] != 3 {
		t.Fatalf("request_count position wrong: %v", v)
	}
	trapIdx := -1
	for i, n := range names {
		if n == "trap_hit" {
			trapIdx = i
		}
	}
	if trapIdx < 0 || v[trapIdx] != 1 {
		t.Fatal("trap_hit not encoded as 1")
	}
}

func TestSessionActorDominant(t *testing.T) {
	a := req(t0, "1.1.1.1", "c", "GET", "/a", 200)
	a.Actor = ActorSeatSpinner
	b := req(t0.Add(time.Second), "1.1.1.1", "c", "GET", "/b", 200)
	b.Actor = ActorSeatSpinner
	c := req(t0.Add(2*time.Second), "1.1.1.1", "c", "GET", "/c", 200)
	c.Actor = ActorHuman
	s := Sessionize([]Request{a, b, c}, 0)[0]
	if got := s.Actor(); got != ActorSeatSpinner {
		t.Fatalf("Actor() = %v", got)
	}
}

func TestActorPredicates(t *testing.T) {
	if !ActorScraper.Automated() || !ActorSeatSpinner.Automated() || !ActorSMSPumper.Automated() {
		t.Fatal("bot actors not automated")
	}
	if ActorHuman.Automated() || ActorManualSpinner.Automated() {
		t.Fatal("non-bot actors marked automated")
	}
	if ActorHuman.Abusive() {
		t.Fatal("human marked abusive")
	}
	if !ActorManualSpinner.Abusive() {
		t.Fatal("manual spinner not abusive")
	}
}

func TestLogRequestsIsCopy(t *testing.T) {
	l := NewLog()
	l.Append(req(t0, "1.1.1.1", "c", "GET", "/a", 200))
	rs := l.Requests()
	rs[0].Path = "/mutated"
	if l.Requests()[0].Path == "/mutated" {
		t.Fatal("Requests() exposed internal slice")
	}
}

func TestActorString(t *testing.T) {
	cases := map[Actor]string{
		ActorHuman:         "human",
		ActorScraper:       "scraper",
		ActorSeatSpinner:   "seat-spinner",
		ActorManualSpinner: "manual-spinner",
		ActorSMSPumper:     "sms-pumper",
		Actor(0):           "unknown",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("Actor(%d).String() = %q, want %q", int(a), a.String(), want)
		}
	}
}
