package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"funabuse/internal/simclock"
)

// serveHTTP starts an HTTPTransport on a loopback socket with its own URL
// registered for the given nodes, so every fetch travels the wire.
func serveHTTP(t *testing.T, nodes int) *HTTPTransport {
	t.Helper()
	tr := NewHTTPTransport(nil)
	url, closeFn, err := tr.Serve()
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { _ = closeFn() })
	for i := range nodes {
		tr.SetPeer(i, url)
	}
	return tr
}

func TestHTTPTransportPublishFetchOverSocket(t *testing.T) {
	tr := serveHTTP(t, 2)
	want := sampleSnapshot(t)
	want.Node = 1
	tr.Publish(want)

	snap, err := tr.FetchFrom(0, 1)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if snap.Node != 1 || len(snap.Rules) != len(want.Rules) {
		t.Fatalf("fetched %+v, want node 1 with %d rules", snap, len(want.Rules))
	}
	if snap.Rules[1].Key != want.Rules[1].Key || !snap.Rules[1].At.Equal(want.Rules[1].At) {
		t.Fatalf("rule did not survive the wire: %+v", snap.Rules[1])
	}
	// Unpublished node: the handler 404s and the client maps it to
	// ErrNotPublished, not a transport fault.
	if _, err := tr.FetchFrom(1, 0); !errors.Is(err, ErrNotPublished) {
		t.Fatalf("unpublished fetch error %v, want ErrNotPublished", err)
	}
	// The Transport-shape Fetch agrees.
	if _, ok := tr.Fetch(0); ok {
		t.Fatal("Fetch reported an unpublished snapshot")
	}
	if got, ok := tr.Fetch(1); !ok || got.Node != 1 {
		t.Fatalf("Fetch(1) = %+v, %v", got, ok)
	}
}

func TestHTTPTransportRejectsWrongNodeBody(t *testing.T) {
	tr := NewHTTPTransport(nil)
	srv := httptest.NewServer(tr.Handler())
	t.Cleanup(srv.Close)
	tr.Publish(Snapshot{Node: 5})
	// Register node 5's snapshot under node 0's identity: the body names a
	// different node, which the client must refuse.
	other := NewHTTPTransport(nil)
	other.SetPeer(0, srv.URL)
	if _, err := other.FetchFrom(-1, 0); err == nil {
		t.Fatal("accepted a snapshot naming a different node")
	}
	// For completeness the honest route still works.
	other.SetPeer(5, srv.URL)
	if snap, err := other.FetchFrom(-1, 5); err != nil || snap.Node != 5 {
		t.Fatalf("honest fetch = %+v, %v", snap, err)
	}
}

// TestHTTPTransportServesOctetStream checks the snapshot route's
// Content-Type, which the handler assigns from a shared value, and that
// an outer handler's Add to it leaves that value as built.
func TestHTTPTransportServesOctetStream(t *testing.T) {
	tr := NewHTTPTransport(nil)
	inner := tr.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		w.Header().Add("Content-Type", "outer")
	}))
	t.Cleanup(srv.Close)
	tr.Publish(Snapshot{Node: 3})
	for range 2 {
		resp, err := http.Get(srv.URL + gossipPathPrefix + "3")
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if got := resp.Header.Values("Content-Type"); resp.StatusCode != http.StatusOK || len(got) != 1 || got[0] != "application/octet-stream" {
			t.Fatalf("answer %d with Content-Type %q, want 200 application/octet-stream", resp.StatusCode, got)
		}
	}
	if v := octetStream; len(v) != 1 || cap(v) != 1 || v[0] != "application/octet-stream" {
		t.Errorf("octetStream = %q (cap %d), want one element with len == cap", v, cap(v))
	}
	http.DefaultClient.CloseIdleConnections()
}

func TestHTTPTransportUnreachablePeerIsTransportError(t *testing.T) {
	tr := NewHTTPTransport(nil)
	tr.SetPeer(1, "http://127.0.0.1:1") // nothing listens there
	_, err := tr.FetchFrom(0, 1)
	if err == nil || errors.Is(err, ErrNotPublished) {
		t.Fatalf("unreachable peer error %v, want a transport fault", err)
	}
}

// TestPublishDefensiveCopy pins the aliasing hardening: mutating the
// publisher's snapshot after Publish must not leak into what fetchers see,
// for every transport.
func TestPublishDefensiveCopy(t *testing.T) {
	transports := map[string]Transport{
		"inproc": NewInProc(),
		"http":   serveHTTP(t, 1),
	}
	for name, tr := range transports {
		snap := Snapshot{
			Node:  0,
			Rules: []Rule{{Origin: 0, Seq: 1, Key: "fp:orig", At: epoch}},
			State: []byte{1, 2, 3},
		}
		tr.Publish(snap)
		// The publisher keeps appending to and rewriting its own buffers —
		// exactly what a node does with its rule log between rounds.
		snap.Rules[0].Key = "fp:mutated"
		snap.Rules = append(snap.Rules, Rule{Origin: 0, Seq: 2, Key: "fp:late", At: epoch})
		snap.State[0] = 0xFF

		got, ok := tr.Fetch(0)
		if !ok {
			t.Fatalf("%s: fetch failed", name)
		}
		if len(got.Rules) != 1 || got.Rules[0].Key != "fp:orig" {
			t.Fatalf("%s: publisher mutation leaked into fetched rules: %+v", name, got.Rules)
		}
		if name == "inproc" && got.State[0] != 1 {
			t.Fatalf("%s: publisher mutation leaked into fetched state", name)
		}
	}
}

// TestClusterOverHTTPTransportMatchesInProc runs the same deterministic
// load through an in-process fleet and a socket-gossip fleet and demands
// identical replication outcomes.
func TestClusterOverHTTPTransportMatchesInProc(t *testing.T) {
	run := func(tr Transport) Stats {
		manual := simclock.NewManual(epoch)
		c := New(Config{
			Nodes:          3,
			Clock:          manual,
			Transport:      tr,
			Router:         &spreadRouter{},
			Gossip:         time.Second,
			ReplicateRules: true,
			ReplicateState: true,
			RuleThreshold:  9,
			RuleWindow:     time.Minute,
		})
		h := c.Handler()
		for range 30 {
			manual.Advance(250 * time.Millisecond)
			h.ServeHTTP(httptest.NewRecorder(), fleetRequest("/booking/hold", 0x50C2, "203.0.0.9"))
		}
		return c.Stats()
	}
	inproc := run(NewInProc())
	socket := run(serveHTTP(t, 3))
	if inproc.RulesOriginated == 0 {
		t.Fatal("baseline run originated no rules; the comparison is vacuous")
	}
	if socket.RulesOriginated != inproc.RulesOriginated ||
		socket.RulesReplicated != inproc.RulesReplicated ||
		socket.GossipRounds != inproc.GossipRounds {
		t.Fatalf("socket gossip diverged from in-proc: %+v vs %+v", socket, inproc)
	}
	if socket.FetchFailures != 0 {
		t.Fatalf("clean socket run counted %d fetch failures", socket.FetchFailures)
	}
}
