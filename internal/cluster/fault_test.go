package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"funabuse/internal/faultinject"
	"funabuse/internal/resilience"
	"funabuse/internal/simclock"
)

func TestFaultTransportDropRate(t *testing.T) {
	inner := NewInProc()
	inner.Publish(Snapshot{Node: 1, Rules: []Rule{{Origin: 1, Seq: 1, Key: "fp:x", At: epoch}}})
	tr := NewFaultTransport(inner, FaultConfig{DropRate: 1})
	for range 5 {
		if _, err := tr.FetchFrom(0, 1); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("drop-all fetch error %v, want ErrInjected", err)
		}
	}
	st := tr.Stats()
	if st.Drops != 5 || st.Fetches != 5 {
		t.Fatalf("stats %+v, want 5 drops of 5 fetches", st)
	}
}

func TestFaultTransportAsymmetricLinkCut(t *testing.T) {
	manual := simclock.NewManual(epoch)
	inner := NewInProc()
	inner.Publish(Snapshot{Node: 0})
	inner.Publish(Snapshot{Node: 1})
	// Cut only the 0→1 direction for the first 10s of every minute.
	tr := NewFaultTransport(inner, FaultConfig{
		Clock: manual,
		Links: []LinkCut{{From: 0, To: 1, Schedule: faultinject.Schedule{
			Start: epoch, Period: time.Minute, Down: 10 * time.Second,
		}}},
	})
	if _, err := tr.FetchFrom(0, 1); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("cut direction error %v, want ErrInjected", err)
	}
	if _, err := tr.FetchFrom(1, 0); err != nil {
		t.Fatalf("reverse direction failed during asymmetric cut: %v", err)
	}
	// After the window the link heals.
	manual.Advance(10 * time.Second)
	if _, err := tr.FetchFrom(0, 1); err != nil {
		t.Fatalf("healed link failed: %v", err)
	}
	if got := tr.Stats().Cuts; got != 1 {
		t.Fatalf("cuts %d, want 1", got)
	}
}

func TestPartitionLinksCutBothDirectionsAcrossGroups(t *testing.T) {
	sched := faultinject.Schedule{Start: epoch, Period: time.Hour, Down: time.Hour}
	links := PartitionLinks([]int{0, 1}, []int{2, 3}, sched)
	if len(links) != 8 {
		t.Fatalf("%d links, want 8 (2×2 pairs, both directions)", len(links))
	}
	cut := func(from, to int) bool {
		for _, l := range links {
			if l.cuts(from, to, epoch.Add(time.Minute)) {
				return true
			}
		}
		return false
	}
	for _, pair := range [][2]int{{0, 2}, {2, 0}, {1, 3}, {3, 1}, {0, 3}, {2, 1}} {
		if !cut(pair[0], pair[1]) {
			t.Fatalf("cross-group link %v not cut", pair)
		}
	}
	for _, pair := range [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}} {
		if cut(pair[0], pair[1]) {
			t.Fatalf("intra-group link %v cut", pair)
		}
	}
}

func TestFaultTransportDelayServesOldSnapshot(t *testing.T) {
	manual := simclock.NewManual(epoch)
	inner := NewInProc()
	tr := NewFaultTransport(inner, FaultConfig{
		Clock: manual, DelayRate: 1, Delay: 5 * time.Second,
	})
	tr.Publish(Snapshot{Node: 1, Rules: []Rule{{Origin: 1, Seq: 1, Key: "fp:old", At: epoch}}})
	manual.Advance(10 * time.Second)
	tr.Publish(Snapshot{Node: 1, Rules: []Rule{
		{Origin: 1, Seq: 1, Key: "fp:old", At: epoch},
		{Origin: 1, Seq: 2, Key: "fp:new", At: manual.Now()},
	}})
	// A delayed fetch sees the 10s-old publish, not the fresh one.
	snap, err := tr.FetchFrom(0, 1)
	if err != nil || len(snap.Rules) != 1 {
		t.Fatalf("delayed fetch = %d rules, %v; want the old single-rule snapshot", len(snap.Rules), err)
	}
	// Delay longer than the retained history reads as nothing-arrived-yet.
	tr2 := NewFaultTransport(inner, FaultConfig{
		Clock: manual, DelayRate: 1, Delay: time.Hour,
	})
	tr2.Publish(Snapshot{Node: 2})
	if _, err := tr2.FetchFrom(0, 2); !errors.Is(err, ErrNotPublished) {
		t.Fatalf("over-delayed fetch error %v, want ErrNotPublished", err)
	}
}

func TestFaultTransportStaleServesOldest(t *testing.T) {
	manual := simclock.NewManual(epoch)
	tr := NewFaultTransport(NewInProc(), FaultConfig{Clock: manual, StaleRate: 1})
	for seq := uint64(1); seq <= 3; seq++ {
		rules := make([]Rule, seq)
		for i := range rules {
			rules[i] = Rule{Origin: 1, Seq: uint64(i) + 1, Key: "fp:k", At: epoch}
		}
		tr.Publish(Snapshot{Node: 1, Rules: rules})
		manual.Advance(time.Second)
	}
	snap, err := tr.FetchFrom(0, 1)
	if err != nil || len(snap.Rules) != 1 {
		t.Fatalf("stale fetch = %d rules, %v; want the oldest single-rule snapshot", len(snap.Rules), err)
	}
}

// TestDuplicateStormIsIdempotent wires DupRate=1 into a live fleet: after
// the first exchange every fetch re-serves the identical snapshot, and the
// per-origin high-water marks must absorb the storm without re-applying a
// single rule.
func TestDuplicateStormIsIdempotent(t *testing.T) {
	manual := simclock.NewManual(epoch)
	tr := NewFaultTransport(NewInProc(), FaultConfig{Clock: manual, DupRate: 1})
	c := New(Config{
		Nodes:          2,
		Clock:          manual,
		Transport:      tr,
		Gossip:         time.Second,
		ReplicateRules: true,
		RuleThreshold:  2,
		RuleWindow:     time.Minute,
	})
	h := c.Handler()
	for range 2 {
		manual.Advance(100 * time.Millisecond)
		h.ServeHTTP(httptest.NewRecorder(), fleetRequest("/booking/hold", 0xd0b, "203.0.0.3"))
	}
	for i := range 5 {
		c.Gossip(manual.Now().Add(time.Duration(i+1) * time.Second))
	}
	st := c.Stats()
	if st.RulesOriginated != 1 || st.RulesReplicated != 1 {
		t.Fatalf("duplicate storm re-applied rules: %+v", st)
	}
	if dups := tr.Stats().Dups; dups == 0 {
		t.Fatal("dup plan never fired; the storm was not exercised")
	}
}

func TestFaultTransportDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) FaultStats {
		inner := NewInProc()
		inner.Publish(Snapshot{Node: 1})
		tr := NewFaultTransport(inner, FaultConfig{Seed: seed, DropRate: 0.5})
		for range 200 {
			_, _ = tr.FetchFrom(0, 1)
		}
		return tr.Stats()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if other := run(8); other == a {
		t.Fatalf("different seeds produced identical stats %+v; draws are not seeded", a)
	}
	if a.Drops == 0 || a.Drops == a.Fetches {
		t.Fatalf("drop rate 0.5 produced %d/%d drops", a.Drops, a.Fetches)
	}
}

// flakyTransport fails the first failN FetchFrom calls, then delegates.
type flakyTransport struct {
	inner Transport
	failN int
	calls int
}

func (f *flakyTransport) Publish(snap Snapshot) { f.inner.Publish(snap) }
func (f *flakyTransport) Fetch(node int) (Snapshot, bool) {
	snap, err := f.FetchFrom(-1, node)
	return snap, err == nil
}
func (f *flakyTransport) FetchFrom(from, to int) (Snapshot, error) {
	f.calls++
	if f.calls <= f.failN {
		return Snapshot{}, errors.New("flaky: transient")
	}
	return fetchVia(f.inner, from, to)
}

// TestFetchRetryRecoversTransient pins the backoff retry: one transient
// failure per round is absorbed by the second attempt and the round
// completes with zero counted failures.
func TestFetchRetryRecoversTransient(t *testing.T) {
	manual := simclock.NewManual(epoch)
	flaky := &flakyTransport{inner: NewInProc(), failN: 1}
	c := New(Config{
		Nodes:          2,
		Clock:          manual,
		Transport:      flaky,
		Gossip:         time.Second,
		ReplicateRules: true,
		FetchRetry:     resilience.RetryConfig{Attempts: 2},
	})
	c.Gossip(manual.Now().Add(time.Second))
	if st := c.Stats(); st.FetchFailures != 0 {
		t.Fatalf("retry did not absorb the transient failure: %+v / %v",
			st, c.FailuresByReason())
	}
	if flaky.calls < 3 {
		t.Fatalf("%d transport calls, want a retried first fetch", flaky.calls)
	}
}

// TestFetchRetryDisabledCountsFailure pins Attempts=1: the same transient
// failure is not retried and lands in the transport-reason counter.
func TestFetchRetryDisabledCountsFailure(t *testing.T) {
	manual := simclock.NewManual(epoch)
	flaky := &flakyTransport{inner: NewInProc(), failN: 1}
	c := New(Config{
		Nodes:      2,
		Clock:      manual,
		Transport:  flaky,
		Gossip:     time.Second,
		FetchRetry: resilience.RetryConfig{Attempts: 1},
	})
	c.Gossip(manual.Now().Add(time.Second))
	if got := c.FailuresByReason()["transport"]; got != 1 {
		t.Fatalf("transport failures %d, want 1", got)
	}
}

// blockingTransport never returns until released; entered, when set,
// is signalled (without blocking) by every fetch that starts waiting.
type blockingTransport struct {
	inner   Transport
	release chan struct{}
	entered chan struct{}
}

func (b *blockingTransport) Publish(snap Snapshot) { b.inner.Publish(snap) }
func (b *blockingTransport) Fetch(node int) (Snapshot, bool) {
	snap, err := b.FetchFrom(-1, node)
	return snap, err == nil
}
func (b *blockingTransport) FetchFrom(from, to int) (Snapshot, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return fetchVia(b.inner, from, to)
}

// TestFetchTimeoutBoundsHungTransport pins where a hung peer's fetch is
// bounded: the HTTP transport's client timeout fails it under the
// transport reason instead of wedging the anti-entropy round (and with it
// the piggybacked request).
func TestFetchTimeoutBoundsHungTransport(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	defer hung.Close()
	defer close(release)
	tr := NewHTTPTransport(&http.Client{Timeout: 5 * time.Millisecond})
	tr.SetPeer(0, hung.URL)
	tr.SetPeer(1, hung.URL)
	c := New(Config{
		Nodes:      2,
		Transport:  tr,
		Gossip:     time.Second,
		FetchRetry: resilience.RetryConfig{Attempts: 1},
	})
	done := make(chan struct{})
	go func() {
		c.Gossip(c.clock.Now())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("gossip round wedged on a hung peer")
	}
	if got := c.FailuresByReason()["transport"]; got != 2 {
		t.Fatalf("transport failures %d, want 2 (one per node's single peer)", got)
	}
}

// TestDegradedFallbackServesLastKnownState drives a fleet into a full
// partition and back: during the outage nodes keep serving on last-known
// fleet state and stamp responses degraded; after the heal the view
// refreshes and the stamp clears.
func TestDegradedFallbackServesLastKnownState(t *testing.T) {
	manual := simclock.NewManual(epoch)
	cutStart := epoch.Add(10 * time.Second)
	tr := NewFaultTransport(NewInProc(), FaultConfig{
		Clock: manual,
		Links: []LinkCut{{From: -1, To: -1, Schedule: faultinject.Schedule{
			Start: cutStart, Period: time.Hour, Down: 30 * time.Second,
		}}},
	})
	c := New(Config{
		Nodes:          2,
		Clock:          manual,
		Transport:      tr,
		Router:         &spreadRouter{},
		Gossip:         time.Second,
		ReplicateRules: true,
		ReplicateState: true,
		RuleThreshold:  4,
		RuleWindow:     time.Minute,
	})
	h := c.Handler()
	var benignFP uint64 = 0x1000
	send := func(fp uint64) *httptest.ResponseRecorder {
		manual.Advance(time.Second)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, fleetRequest("/booking/hold", fp, "203.0.0.4"))
		return rec
	}
	// sendBenign rotates fingerprints so benign traffic never crosses the
	// rule threshold itself.
	sendBenign := func() *httptest.ResponseRecorder {
		benignFP++
		return send(benignFP)
	}
	// Healthy phase: one abusive fingerprint split across nodes; the merged
	// fleet view crosses the threshold and originates a rule — proving the
	// pre-partition exchange happened at all.
	for range 6 {
		if rec := send(0xdead); rec.Header().Get(FleetDegradedHeader) != "" {
			t.Fatal("healthy fleet stamped degraded")
		}
	}
	if c.Stats().GossipRounds == 0 {
		t.Fatal("no gossip before the cut; test premise broken")
	}
	preRules := len(c.Rules())

	// Outage phase: every link is cut. Staleness grows past three gossip
	// intervals and requests get stamped, but they are still served 200.
	var sawDegraded bool
	for manual.Now().Before(cutStart.Add(25 * time.Second)) {
		rec := sendBenign()
		if rec.Code != 200 {
			t.Fatalf("degraded node refused to serve: %d", rec.Code)
		}
		if rec.Header().Get(FleetDegradedHeader) == FleetDegradedStale {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatal("outage never stamped a degraded response")
	}
	if c.Stats().DegradedResponses == 0 {
		t.Fatal("degraded responses not counted")
	}
	if c.FailuresByReason()["transport"] == 0 {
		t.Fatal("cut fetches not counted as transport failures")
	}
	// Rules originated before the cut are still enforced from local
	// blocklists during it (fail-static, not fail-open).
	if got := len(c.Rules()); got < preRules {
		t.Fatalf("rules vanished during outage: %d < %d", got, preRules)
	}

	// Heal phase: links restore, the next rounds refresh every peer and the
	// degraded stamp clears.
	manual.SetAt(cutStart.Add(31 * time.Second))
	for range 3 {
		if rec := sendBenign(); rec.Code != 200 {
			t.Fatalf("healed fleet refused to serve: %d", rec.Code)
		}
	}
	if rec := sendBenign(); rec.Header().Get(FleetDegradedHeader) != "" {
		t.Fatal("degraded stamp did not clear after heal")
	}
	for i := range 2 {
		if c.NodeDegraded(i) {
			t.Fatalf("node %d still degraded after heal", i)
		}
		if got := c.PeerStaleness(i, 1-i); got > 2*time.Second {
			t.Fatalf("node %d staleness %v after heal", i, got)
		}
	}
}
