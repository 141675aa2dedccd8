package cluster

import (
	"errors"
	"maps"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funabuse/internal/race"
	"funabuse/internal/resilience"
	"funabuse/internal/signal"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
)

// fetchRecord is one peer fetch as the anti-entropy loop saw it.
type fetchRecord struct {
	from, to int
	snap     Snapshot
	err      error
}

// recordingTransport sits outermost on a transport stack: it lets a test
// tamper with what a fetch returns and logs every outcome, so the
// reference view below can be fed exactly what the cluster absorbed.
type recordingTransport struct {
	inner  Transport
	tamper func(from, to int, snap *Snapshot)
	log    []fetchRecord
}

func (r *recordingTransport) Publish(snap Snapshot) { r.inner.Publish(snap) }
func (r *recordingTransport) Fetch(node int) (Snapshot, bool) {
	snap, err := r.FetchFrom(-1, node)
	return snap, err == nil
}
func (r *recordingTransport) FetchFrom(from, to int) (Snapshot, error) {
	snap, err := fetchVia(r.inner, from, to)
	if err == nil && r.tamper != nil {
		r.tamper(from, to, &snap)
	}
	r.log = append(r.log, fetchRecord{from: from, to: to, snap: snap, err: err})
	return snap, err
}

// referenceView is the fleet view as it was built before the per-peer
// slots: every round, each node decodes the freshest snapshot it holds of
// every peer — falling back to the last good one on a failed fetch or a
// corrupt sketch — and merges them all into one state, from scratch. It
// also keeps the bookkeeping that loop kept (failure reasons, last-good
// instants, rule high-water marks), so the slot view can be checked
// against every observable the old loop had.
type referenceView struct {
	start      time.Time
	staleAfter time.Duration
	failures   map[string]uint64
	nodes      []referenceNode
}

type referenceNode struct {
	lastGood map[int]Snapshot
	lastOKAt map[int]time.Time
	applied  map[int]uint64
	view     *signal.State
	degraded bool
}

func newReferenceView(nodes int, start time.Time, staleAfter time.Duration) *referenceView {
	ref := &referenceView{start: start, staleAfter: staleAfter, failures: make(map[string]uint64)}
	for _, r := range failReasons {
		ref.failures[r] = 0
	}
	for range nodes {
		ref.nodes = append(ref.nodes, referenceNode{
			lastGood: make(map[int]Snapshot),
			lastOKAt: make(map[int]time.Time),
			applied:  make(map[int]uint64),
		})
	}
	return ref
}

// absorb replays one node's round over the fetches it made, in order.
func (ref *referenceView) absorb(t *testing.T, id int, fetches []fetchRecord, now time.Time) {
	t.Helper()
	n := &ref.nodes[id]
	var view *signal.State
	for _, f := range fetches {
		snap, fresh := f.snap, f.err == nil
		if !fresh {
			if errors.Is(f.err, ErrNotPublished) {
				ref.failures["unpublished"]++
			} else {
				ref.failures["transport"]++
			}
			var ok bool
			if snap, ok = n.lastGood[f.to]; !ok {
				continue
			}
		}
		var st *signal.State
		if len(snap.State) > 0 {
			var err error
			if st, err = signal.DecodeState(snap.State); err != nil {
				ref.failures["decode"]++
				st = nil
				if fresh {
					fresh = false
					if prev, ok := n.lastGood[f.to]; ok && len(prev.State) > 0 {
						st, _ = signal.DecodeState(prev.State)
					}
				}
			}
		}
		if fresh {
			n.lastGood[f.to] = snap
			n.lastOKAt[f.to] = now
		}
		if st != nil {
			if view == nil {
				view = st
			} else if !view.Merge(st) {
				t.Fatalf("reference merge of node %d's state refused", f.to)
			}
		}
		hw := n.applied[snap.Node]
		for _, r := range snap.Rules {
			hw = max(hw, r.Seq)
		}
		n.applied[snap.Node] = hw
	}
	n.view = view
	n.degraded = false
	for peer := range ref.nodes {
		last, ok := n.lastOKAt[peer]
		if !ok {
			last = ref.start
		}
		if peer != id && now.Sub(last) > ref.staleAfter {
			n.degraded = true
		}
	}
}

func (n *referenceNode) rate(key string, now time.Time) int {
	if n.view == nil {
		return 0
	}
	return n.view.Rate(key, now)
}

// TestSlotViewMatchesMergedReference is the differential test the slot
// view rests on: seeded traffic over a randomly routed fleet (every node
// sees every key, so reference merges really add), gossip through a
// FaultTransport dropping, duplicating, delaying and staling fetches,
// plus a corrupt sketch and a state-less snapshot injected on top. After
// every round each node's sum over peer slots must equal the rate of the
// reference's merged-from-scratch view for every key — now and as the
// window drains — and failure counts, degraded flags and rule high-water
// marks must match too. Each round must also decode each distinct payload
// once (see checkDecodeOnce).
func TestSlotViewMatchesMergedReference(t *testing.T) {
	const nodes, rounds, fingerprints = 4, 40, 60
	for seed := uint64(1); seed <= 3; seed++ {
		manual := simclock.NewManual(epoch)
		round := 0
		rec := &recordingTransport{
			inner: NewFaultTransport(NewInProc(), FaultConfig{
				Seed: seed, Clock: manual,
				DropRate: 0.2, DupRate: 0.15, StaleRate: 0.15,
				DelayRate: 0.15, Delay: 2 * time.Second,
			}),
			tamper: func(from, to int, snap *Snapshot) {
				switch {
				case round%7 == 3 && to == 1:
					snap.State = []byte("FAS1 is not what follows")
				case round%5 == 2 && to == 2 && from != 0:
					snap.State = nil
				}
			},
		}
		c := New(Config{
			Nodes:     nodes,
			Clock:     manual,
			Transport: rec,
			// One-second gossip makes a peer stale after 3 s; traffic below
			// goes straight to a random node's gate, past the front that
			// would piggyback rounds, so only the forced rounds run.
			Gossip:         time.Second,
			ReplicateRules: true,
			ReplicateState: true,
			RuleThreshold:  25,
			RuleWindow:     time.Minute,
			FetchRetry:     resilience.RetryConfig{Attempts: 1}, // one transport call per fetch, so the log is the loop's view
		})
		ref := newReferenceView(nodes, epoch, 3*time.Second)
		shared := 0
		rng := simrand.New(seed).Derive("traffic")
		zipf := simrand.NewZipf(fingerprints, 1.1)
		keys := make([]string, fingerprints)
		for i := range keys {
			keys[i] = "fp:" + strconv.FormatUint(uint64(0xa000+i), 16)
		}
		for round = 0; round < rounds; round++ {
			for range 30 + rng.Intn(60) {
				manual.Advance(time.Duration(rng.Intn(40)) * time.Millisecond)
				fp := uint64(0xa000 + zipf.Draw(rng))
				r := fleetRequest("/booking/hold", fp, "203.0.1."+strconv.Itoa(rng.Intn(50)))
				c.nodes[rng.Intn(nodes)].handler.ServeHTTP(httptest.NewRecorder(), r)
			}
			now := manual.Now()
			rec.log = rec.log[:0]
			before := peerSlots(c)
			c.Gossip(now)
			shared += checkDecodeOnce(t, c, before, rec.log)
			for id := range nodes {
				var mine []fetchRecord
				for _, f := range rec.log {
					if f.from == id {
						mine = append(mine, f)
					}
				}
				ref.absorb(t, id, mine, now)
			}

			for id, n := range c.nodes {
				want := &ref.nodes[id]
				for _, key := range keys {
					for _, ahead := range []time.Duration{0, 20 * time.Second, 59 * time.Second, 2 * time.Minute} {
						at := now.Add(ahead)
						n.mu.Lock()
						got := n.peerRate(key, at)
						n.mu.Unlock()
						if got != want.rate(key, at) {
							t.Fatalf("seed %d round %d node %d %s +%v: slots sum to %d, merged reference answers %d",
								seed, round, id, key, ahead, got, want.rate(key, at))
						}
					}
				}
				if c.NodeDegraded(id) != want.degraded {
					t.Fatalf("seed %d round %d node %d: degraded %v, reference %v", seed, round, id, c.NodeDegraded(id), want.degraded)
				}
				n.mu.Lock()
				applied := maps.Clone(n.applied)
				n.mu.Unlock()
				for origin, hw := range want.applied {
					if applied[origin] != hw {
						t.Fatalf("seed %d round %d node %d: high-water mark for origin %d is %d, reference %d",
							seed, round, id, origin, applied[origin], hw)
					}
				}
			}
			if got := c.FailuresByReason(); !maps.Equal(got, ref.failures) {
				t.Fatalf("seed %d round %d: failures %v, reference %v", seed, round, got, ref.failures)
			}
		}
		// The plan must have exercised every branch the view has.
		if c.Stats().RulesReplicated == 0 {
			t.Fatalf("seed %d: no rule ever replicated", seed)
		}
		for _, reason := range []string{"transport", "decode"} {
			if ref.failures[reason] == 0 {
				t.Fatalf("seed %d: no %s failure was exercised", seed, reason)
			}
		}
		if shared == 0 {
			t.Fatalf("seed %d: no two nodes ever shared a view", seed)
		}
	}
}

// peerSlots copies every node's peer slots.
func peerSlots(c *Cluster) [][]*signal.Rates {
	slots := make([][]*signal.Rates, len(c.nodes))
	for i, n := range c.nodes {
		n.mu.Lock()
		slots[i] = append([]*signal.Rates(nil), n.peers...)
		n.mu.Unlock()
	}
	return slots
}

// checkDecodeOnce holds one round's fetches to the decode memo: nodes that
// fetched byte-identical state hold the same view, a view serves one
// payload only — so a tampered or stale fetch got its own decode — and a
// fetch whose state failed to decode left the slot it had before the
// round. It returns how many fetches shared a view an earlier one holds.
func checkDecodeOnce(t *testing.T, c *Cluster, before [][]*signal.Rates, fetches []fetchRecord) (shared int) {
	t.Helper()
	byPayload := map[string]*signal.Rates{}
	byView := map[*signal.Rates]string{}
	for _, f := range fetches {
		if f.err != nil || len(f.snap.State) == 0 {
			continue
		}
		n := c.nodes[f.from]
		n.mu.Lock()
		view := n.peers[f.to]
		n.mu.Unlock()
		payload := string(f.snap.State)
		if _, err := signal.DecodeRates(f.snap.State); err != nil {
			if view != before[f.from][f.to] {
				t.Fatalf("node %d replaced its slot of node %d with an undecodable state", f.from, f.to)
			}
			continue
		}
		if prev, ok := byPayload[payload]; ok {
			if prev != view {
				t.Fatalf("node %d holds its own view of bytes another node's view already serves", f.from)
			}
			shared++
		}
		if prev, ok := byView[view]; ok && prev != payload {
			t.Fatalf("node %d's view of node %d also serves a different payload", f.from, f.to)
		}
		byPayload[payload], byView[view] = view, payload
	}
	return shared
}

// TestSharedViewsRace runs decisions on every node while gossip rounds
// swap the peer slots underneath them. With RuleThreshold set, each
// decision sums its node's peer views, and the nodes read one shared view
// of each peer's payload under their own locks, so under -race this pins
// that a view is only ever read once published.
func TestSharedViewsRace(t *testing.T) {
	c, manual := warmFleet(t, 4, 100)
	if v := c.nodes[1].peers[0]; v == nil || v != c.nodes[2].peers[0] {
		t.Fatal("nodes 1 and 2 do not share a view of node 0's state")
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	for i := range c.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := fleetRequest("/booking/hold", 0, "203.0.4.1")
			info := c.NodeGate(i).Client(r)
			// Decide until every round has run, at least 200 times.
			for j := 0; j < 200 || !stop.Load(); j++ {
				info.Fingerprint = uint64(j%400+1) * 0x9e3779b97f4a7c15
				c.NodeGate(i).Decide(r, info)
			}
		}()
	}
	for range 8 {
		c.Gossip(manual.Advance(time.Second))
	}
	stop.Store(true)
	wg.Wait()
}

// TestBusyRoundPassesRequests pins the try-lock election: while one
// request is inside a gossip round (held open by a transport that blocks),
// a second request that also finds the interval elapsed is served at once
// instead of queueing behind the round.
func TestBusyRoundPassesRequests(t *testing.T) {
	manual := simclock.NewManual(epoch)
	blocking := &blockingTransport{
		inner:   NewInProc(),
		release: make(chan struct{}),
		entered: make(chan struct{}, 1),
	}
	c := New(Config{
		Nodes:      2,
		Clock:      manual,
		Transport:  blocking,
		Gossip:     time.Second,
		FetchRetry: resilience.RetryConfig{Attempts: 1},
	})
	h := c.Handler()
	manual.Advance(2 * time.Second)
	elected := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, fleetRequest("/search", 0x1, "203.0.2.1"))
		elected <- rec.Code
	}()
	select {
	case <-blocking.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the due request never started a round")
	}
	passed := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, fleetRequest("/search", 0x2, "203.0.2.2"))
		passed <- rec.Code
	}()
	select {
	case code := <-passed:
		if code != 200 {
			t.Fatalf("passing request status %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second request queued behind the running round")
	}
	if got := c.GossipRounds(); got != 0 {
		t.Fatalf("%d rounds completed while the transport was blocked", got)
	}
	close(blocking.release)
	if code := <-elected; code != 200 {
		t.Fatalf("elected request status %d", code)
	}
	if got := c.GossipRounds(); got != 1 {
		t.Fatalf("%d rounds ran, want exactly the elected one", got)
	}
}

// warmFleet builds an in-process hash-routed fleet and drives one window
// of traffic through it, keysPerNode fingerprints to a node on average,
// with a gossip round behind it: the saturated state a production round
// snapshots, ships, decodes and swaps in.
func warmFleet(tb testing.TB, nodes, keysPerNode int) (*Cluster, *simclock.Manual) {
	tb.Helper()
	manual := simclock.NewManual(epoch)
	c := New(Config{
		Nodes:          nodes,
		Clock:          manual,
		Gossip:         time.Hour,
		ReplicateRules: true,
		ReplicateState: true,
		RuleThreshold:  1 << 20,
		RuleWindow:     time.Minute,
	})
	r := fleetRequest("/booking/hold", 0, "203.0.3.1")
	total := nodes * keysPerNode
	for i := range 3 * total {
		manual.Advance(time.Minute / time.Duration(4*total))
		info := c.NodeGate(0).Client(r)
		info.Fingerprint = uint64(i%total+1) * 0x9e3779b97f4a7c15
		info.IP = "203.0.3." + strconv.Itoa(i%200)
		c.Decide(r, info)
	}
	c.Gossip(manual.Now())
	return c, manual
}

// TestGossipRoundAllocBound pins what one anti-entropy round costs on a
// warmed four-node fleet: four snapshots of ~500-key states and four
// decodes into rate views — each published payload once, however many
// peers fetch it — in about 80 allocations and 1.5 MB. Twelve decodes
// into rings cost 175 and 4.6 MB; a per-key codec or a merged view
// rebuilt each round would cost tens of thousands.
func TestGossipRoundAllocBound(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	c, manual := warmFleet(t, 4, 500)
	if avg := testing.AllocsPerRun(3, func() { c.Gossip(manual.Now()) }); avg > 160 {
		t.Fatalf("one gossip round allocates %.0f times, want <= 160", avg)
	}
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		c.Gossip(manual.Now())
	}
	runtime.ReadMemStats(&after)
	if perRound := (after.TotalAlloc - before.TotalAlloc) / rounds; perRound > 2_300_000 {
		t.Fatalf("one gossip round allocates %d bytes, want <= 2300000", perRound)
	}
}

func BenchmarkGossipRound(b *testing.B) {
	c, manual := warmFleet(b, 4, 500)
	b.ReportAllocs()
	for b.Loop() {
		c.Gossip(manual.Now())
	}
}
