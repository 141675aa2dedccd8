package cluster

import (
	"bytes"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"funabuse/internal/obs"
	"funabuse/internal/signal"
	"funabuse/internal/simclock"
)

func sampleSnapshot(t *testing.T) Snapshot {
	t.Helper()
	eng := signal.NewEngine(signal.EngineConfig{
		Shards: 2, Window: time.Minute, TopK: 8,
		SketchWidth: 64, SketchDepth: 2, DistinctPrecision: 6,
		SurgeStart: epoch, SurgePeriod: time.Minute,
	})
	for i := range 10 {
		eng.Observe("fp:"+string(rune('a'+i%3)), epoch.Add(time.Duration(i)*time.Second))
	}
	return Snapshot{
		Node: 3,
		Rules: []Rule{
			{Origin: 3, Seq: 1, Key: "fp:abc", At: epoch.Add(time.Second)},
			{Origin: 3, Seq: 2, Key: "fp:ü-高", At: epoch.Add(2 * time.Second)},
			{Origin: 3, Seq: 3, Key: "", At: epoch.Add(3 * time.Second)},
		},
		State: eng.State().Encode(),
	}
}

func TestSnapshotWireRoundTrip(t *testing.T) {
	want := sampleSnapshot(t)
	got, err := DecodeSnapshot(EncodeSnapshot(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Node != want.Node || len(got.Rules) != len(want.Rules) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	for i, r := range got.Rules {
		w := want.Rules[i]
		if r.Origin != w.Origin || r.Seq != w.Seq || r.Key != w.Key || !r.At.Equal(w.At) {
			t.Fatalf("rule %d decoded %+v, want %+v", i, r, w)
		}
	}
	if !bytes.Equal(got.State, want.State) {
		t.Fatal("state bytes did not round-trip")
	}
	// The embedded state must still decode as a signal state.
	if _, err := signal.DecodeState(got.State); err != nil {
		t.Fatalf("embedded state decode: %v", err)
	}
	// Re-encoding the decoded snapshot is byte-identical: the wire form is
	// a pure function of the logical content.
	if !bytes.Equal(EncodeSnapshot(got), EncodeSnapshot(want)) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

func TestSnapshotWireEmpty(t *testing.T) {
	got, err := DecodeSnapshot(EncodeSnapshot(Snapshot{Node: 0}))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if got.Node != 0 || got.Rules != nil || got.State != nil {
		t.Fatalf("empty snapshot decoded to %+v", got)
	}
}

func TestSnapshotWireRejectsCorrupt(t *testing.T) {
	enc := EncodeSnapshot(sampleSnapshot(t))
	cases := map[string][]byte{
		"empty":      nil,
		"bad magic":  []byte("XGS1\x00"),
		"magic only": []byte(snapshotMagic),
		"trailing":   append(append([]byte(nil), enc...), 0x7),
	}
	// Every truncation of a valid encoding must error, never panic.
	for i := range len(enc) - 1 {
		if i <= len(snapshotMagic) {
			continue
		}
		cases["truncated@"+string(rune('0'+i%10))] = enc[:i]
	}
	for name, b := range cases {
		if _, err := DecodeSnapshot(b); err == nil {
			t.Fatalf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestSnapshotWireBoundsRecordLength(t *testing.T) {
	// A fabricated record length beyond maxWireRuleLen must be rejected
	// before any allocation sized by it.
	b := []byte(snapshotMagic)
	b = append(b, 0)                // node 0
	b = append(b, 1)                // one rule
	b = append(b, 0xFF, 0xFF, 0x7F) // record length 2097151 > maxWireRuleLen
	if _, err := DecodeSnapshot(b); err == nil {
		t.Fatal("oversized record length accepted")
	}
}

func FuzzDecodeSnapshot(f *testing.F) {
	eng := signal.NewEngine(signal.EngineConfig{
		Shards: 1, Window: time.Minute, TopK: 4,
		SketchWidth: 32, SketchDepth: 2, DistinctPrecision: 4,
		SurgeStart: epoch, SurgePeriod: time.Minute,
	})
	eng.Observe("fp:1", epoch)
	f.Add(EncodeSnapshot(Snapshot{Node: 1}))
	f.Add(EncodeSnapshot(Snapshot{
		Node:  2,
		Rules: []Rule{{Origin: 2, Seq: 1, Key: "fp:abc", At: epoch}},
		State: eng.State().Encode(),
	}))
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("FGS1\x01\x01\xff"))
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := DecodeSnapshot(b) // must never panic
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same bytes.
		enc := EncodeSnapshot(snap)
		again, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decode of valid snapshot failed: %v", err)
		}
		if !bytes.Equal(enc, EncodeSnapshot(again)) {
			t.Fatal("decode→encode not a fixed point")
		}
	})
}

// TestGossipRoundHistogramRegistered pins that New registers the round
// histogram and rounds observe into it.
func TestGossipRoundHistogramRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	manual := simclock.NewManual(epoch)
	c := New(Config{Nodes: 2, Clock: manual, Gossip: time.Second, Telemetry: reg})
	c.Gossip(manual.Now().Add(time.Second))
	var count float64 = -1
	for _, s := range reg.Gather() {
		if s.Name == MetricGossipRoundSeconds+"_count" {
			count = s.Value
		}
	}
	if count != 1 {
		t.Fatalf("round histogram count %v, want 1", count)
	}
}

// TestPublishedStateIsWindowsOnly pins the fleet's wire shape: after
// traffic, each node's published state decodes to its per-key windows and
// nothing else — no sketch, heavy-hitter, distinct or surge signal rides
// along — and every window answers what the node's own engine does.
func TestPublishedStateIsWindowsOnly(t *testing.T) {
	const nodes, fingerprints = 3, 12
	manual := simclock.NewManual(epoch)
	tr := NewInProc()
	c := New(Config{
		Nodes:          nodes,
		Clock:          manual,
		Router:         NewRandomRouter(7),
		Transport:      tr,
		ReplicateState: true,
		RuleWindow:     time.Minute,
	})
	h := c.Handler()
	for i := range 200 {
		manual.Advance(250 * time.Millisecond)
		h.ServeHTTP(httptest.NewRecorder(),
			fleetRequest("/search", uint64(0xb000+i%fingerprints), "203.0.113."+strconv.Itoa(1+i%50)))
	}
	now := manual.Now()
	c.Gossip(now)
	for i, n := range c.nodes {
		snap, ok := tr.Fetch(i)
		if !ok || len(snap.State) == 0 {
			t.Fatalf("node %d published no state", i)
		}
		st, err := signal.DecodeState(snap.State)
		if err != nil {
			t.Fatalf("node %d: decode: %v", i, err)
		}
		if st.Keys() == 0 || st.Keys() != n.engine.TrackedKeys() {
			t.Fatalf("node %d: %d keys on the wire, engine tracks %d", i, st.Keys(), n.engine.TrackedKeys())
		}
		if st.Top(0) != nil || st.Surges(0, now) != nil {
			t.Fatalf("node %d: top-K or surge state on the wire", i)
		}
		for f := range fingerprints {
			key := "fp:" + strconv.FormatUint(uint64(0xb000+f), 16)
			if st.Freq(key) != 0 || st.Distinct(key) != 0 {
				t.Fatalf("node %d: %s carries a frequency or distinct estimate", i, key)
			}
			if got, want := st.Rate(key, now), n.engine.Rate(key, now); got != want {
				t.Fatalf("node %d: %s rate %d on the wire, %d in the engine", i, key, got, want)
			}
		}
	}
}
