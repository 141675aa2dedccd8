package signal

import (
	"bytes"
	"testing"
	"time"
)

func TestSurgeMerge(t *testing.T) {
	a := NewSurgeDetector(t0, time.Hour)
	b := NewSurgeDetector(t0, time.Hour)
	// a is one period behind b: after the merge a must roll forward and
	// a's current period becomes part of the merged baseline.
	a.Observe("NG", t0.Add(10*time.Minute))
	a.Observe("NG", t0.Add(20*time.Minute))
	b.Observe("NG", t0.Add(15*time.Minute))
	b.Observe("NG", t0.Add(70*time.Minute))
	b.Observe("US", t0.Add(80*time.Minute))
	if !a.Merge(b) {
		t.Fatal("merge of identical anchoring failed")
	}
	before, after := a.Totals()
	if before != 3 || after != 2 {
		t.Fatalf("merged totals before=%d after=%d, want 3/2", before, after)
	}
	if a.Merge(NewSurgeDetector(t0, time.Minute)) {
		t.Fatal("merge of mismatched periods accepted")
	}
	if a.Merge(NewSurgeDetector(t0.Add(time.Second), time.Hour)) {
		t.Fatal("merge of mismatched anchors accepted")
	}
}

func TestSurgeMergeDropsAncientPeriods(t *testing.T) {
	a := NewSurgeDetector(t0, time.Hour)
	b := NewSurgeDetector(t0, time.Hour)
	a.Observe("old", t0.Add(5*time.Minute))
	b.Observe("new", t0.Add(10*time.Hour))
	if !a.Merge(b) {
		t.Fatal("merge failed")
	}
	// a's counts are ten periods stale relative to b's current period —
	// a roll would have dropped them, so the merge must too.
	before, after := a.Totals()
	if before != 0 || after != 1 {
		t.Fatalf("merged totals before=%d after=%d, want 0/1", before, after)
	}
}

// stateTestConfig is a compact engine the state tests share.
func stateTestConfig() EngineConfig {
	return EngineConfig{
		Shards:            4,
		Window:            time.Minute,
		TopK:              32,
		SketchWidth:       256,
		SketchDepth:       3,
		DistinctPrecision: 8,
		SurgeStart:        t0,
		SurgePeriod:       30 * time.Second,
	}
}

// feedEngine drives a deterministic mixed stream into e, keeping every
// observation inside one window so nothing expires mid-test. Picking
// i%2==sel feeds the even or odd half-stream.
func feedEngine(e *Engine, sel int) {
	at := t0
	for i := range 400 {
		if sel < 0 || i%2 == sel {
			key := "fp:" + itoa(i%7)
			e.ObserveAttr(key, "ip:"+itoa(i%13), at)
		}
		at = at.Add(100 * time.Millisecond)
	}
}

func TestStateMergeMatchesUnionStream(t *testing.T) {
	union := NewEngine(stateTestConfig())
	a := NewEngine(stateTestConfig())
	b := NewEngine(stateTestConfig())
	feedEngine(union, -1)
	feedEngine(a, 0)
	feedEngine(b, 1)
	merged := a.State()
	if !merged.Merge(b.State()) {
		t.Fatal("merge of identical configs failed")
	}
	// The merged state must be indistinguishable from a snapshot of one
	// engine that saw the whole stream: compare canonical encodings.
	got, want := merged.Encode(), union.State().Encode()
	if !bytes.Equal(got, want) {
		t.Fatalf("merged state differs from union-stream state (%d vs %d bytes)",
			len(got), len(want))
	}
	if merged.Observed() != union.Observed() {
		t.Fatalf("merged observed %d, want %d", merged.Observed(), union.Observed())
	}
}

func TestStateMergeRejectsMismatch(t *testing.T) {
	base := NewEngine(stateTestConfig())
	feedEngine(base, -1)
	view := base.State()
	if view.Merge(view) {
		t.Fatal("self-merge accepted")
	}
	want := view.Encode()
	mutations := map[string]func(*EngineConfig){
		"window":     func(c *EngineConfig) { c.Window = 2 * time.Minute },
		"topk":       func(c *EngineConfig) { c.TopK = 16 },
		"width":      func(c *EngineConfig) { c.SketchWidth = 512 },
		"depth":      func(c *EngineConfig) { c.SketchDepth = 4 },
		"precision":  func(c *EngineConfig) { c.DistinctPrecision = 10 },
		"period":     func(c *EngineConfig) { c.SurgePeriod = time.Minute },
		"anchor":     func(c *EngineConfig) { c.SurgeStart = t0.Add(time.Second) },
		"nosketch":   func(c *EngineConfig) { c.SketchWidth = 0 },
		"notopk":     func(c *EngineConfig) { c.TopK = 0 },
		"nodistinct": func(c *EngineConfig) { c.DistinctPrecision = 0 },
		"nosurge":    func(c *EngineConfig) { c.SurgePeriod = 0 },
	}
	others := map[string]*State{}
	for name, mutate := range mutations {
		cfg := stateTestConfig()
		mutate(&cfg)
		other := NewEngine(cfg)
		feedEngine(other, -1)
		others[name] = other.State()
	}
	// Every engine rings DefaultWindowBuckets; another ring size can only
	// arrive on the wire, from a peer built differently.
	odd := NewEngine(stateTestConfig())
	feedEngine(odd, -1)
	others["buckets"] = odd.State()
	others["buckets"].buckets = DefaultWindowBuckets / 2
	for name, other := range others {
		if view.Merge(other) {
			t.Fatalf("%s: merge of mismatched configs accepted", name)
		}
		if !bytes.Equal(view.Encode(), want) {
			t.Fatalf("%s: refused merge modified the receiver", name)
		}
	}
}

func TestStateEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEngine(stateTestConfig())
	feedEngine(e, -1)
	st := e.State()
	enc := st.Encode()
	dec, err := DecodeState(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Re-encoding the decoded state must be byte-identical — Encode is a
	// pure function of logical content, so this proves lossless transport.
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("re-encoded state differs from original encoding")
	}
	now := t0.Add(40 * time.Second)
	for i := range 7 {
		key := "fp:" + itoa(i)
		if got, want := dec.Rate(key, now), st.Rate(key, now); got != want {
			t.Fatalf("%s: decoded rate %d, want %d", key, got, want)
		}
		if got, want := dec.Freq(key), st.Freq(key); got != want {
			t.Fatalf("%s: decoded freq %d, want %d", key, got, want)
		}
		if got, want := dec.Distinct(key), st.Distinct(key); got != want {
			t.Fatalf("%s: decoded distinct %v, want %v", key, got, want)
		}
	}
	if got, want := dec.Top(0), st.Top(0); len(got) != len(want) {
		t.Fatalf("decoded top has %d entries, want %d", len(got), len(want))
	}
	if got, want := dec.Surges(0, now), st.Surges(0, now); len(got) != len(want) {
		t.Fatalf("decoded surges has %d rows, want %d", len(got), len(want))
	}
	if dec.Observed() != st.Observed() || dec.Keys() != st.Keys() {
		t.Fatalf("decoded observed/keys %d/%d, want %d/%d",
			dec.Observed(), dec.Keys(), st.Observed(), st.Keys())
	}
}

func TestStateDecodeRejectsCorrupt(t *testing.T) {
	e := NewEngine(stateTestConfig())
	feedEngine(e, -1)
	enc := e.State().Encode()
	if _, err := DecodeState(nil); err == nil {
		t.Fatal("decoded empty buffer")
	}
	if _, err := DecodeState([]byte("XXXX")); err == nil {
		t.Fatal("decoded bad magic")
	}
	if _, err := DecodeState(enc[:len(enc)/2]); err == nil {
		t.Fatal("decoded truncated buffer")
	}
	if _, err := DecodeState(append(append([]byte{}, enc...), 0xFF)); err == nil {
		t.Fatal("decoded buffer with trailing garbage")
	}
}

func TestStateMergeCombinesDisjointNodes(t *testing.T) {
	// Two nodes each see half of one attacker's volume; neither local
	// state shows the full rate, the merged fleet view does.
	a := NewEngine(stateTestConfig())
	b := NewEngine(stateTestConfig())
	feedEngine(a, 0)
	feedEngine(b, 1)
	view := a.State()
	if !view.Merge(b.State()) {
		t.Fatal("merge of identical dimensions failed")
	}
	now := t0.Add(40 * time.Second)
	key := "fp:0"
	local := a.State().Rate(key, now)
	fleet := view.Rate(key, now)
	if fleet <= local {
		t.Fatalf("fleet rate %d not above local rate %d", fleet, local)
	}
	if fleet != a.Rate(key, now)+b.Rate(key, now) {
		t.Fatalf("fleet rate %d, want exact sum %d", fleet, a.Rate(key, now)+b.Rate(key, now))
	}
}
