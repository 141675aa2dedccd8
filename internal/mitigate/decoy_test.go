package mitigate

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"funabuse/internal/simrand"
)

func decoyRefs(n int) []string {
	refs := make([]string, n)
	for i := range refs {
		refs[i] = fmt.Sprintf("PNR%05d", i)
	}
	return refs
}

func TestDecoySetDeterministicPerSeed(t *testing.T) {
	refs := decoyRefs(40)
	a := NewDecoySet(7, refs, 0.25)
	b := NewDecoySet(7, refs, 0.25)
	if !reflect.DeepEqual(a.Refs(), b.Refs()) {
		t.Fatalf("same seed, different decoys:\n%v\n%v", a.Refs(), b.Refs())
	}
	c := NewDecoySet(8, refs, 0.25)
	if reflect.DeepEqual(a.Refs(), c.Refs()) {
		t.Fatal("different seeds picked identical decoy sets")
	}
}

func TestDecoySetFractionCounts(t *testing.T) {
	refs := decoyRefs(40)
	cases := []struct {
		fraction float64
		want     int
	}{
		{0.25, 10},
		{0.3, 12},
		{1, 40},
		{2, 40},    // clamps to all
		{0.001, 1}, // rounds down to zero, floored at one
		{-0.5, 0},  // non-positive fraction: no decoys
	}
	for _, tc := range cases {
		d := NewDecoySet(1, refs, tc.fraction)
		if d.Size() != tc.want {
			t.Errorf("fraction %v: %d decoys, want %d", tc.fraction, d.Size(), tc.want)
		}
	}
	if d := NewDecoySet(1, nil, 0.5); d.Size() != 0 || d.IsDecoy("PNR00000") {
		t.Fatal("empty inventory produced decoys")
	}
}

func TestDecoySetMembership(t *testing.T) {
	refs := decoyRefs(20)
	d := NewDecoySet(3, refs, 0.3)
	decoys := 0
	for _, ref := range refs {
		if d.IsDecoy(ref) {
			decoys++
		}
	}
	if decoys != d.Size() {
		t.Fatalf("membership count %d != Size %d", decoys, d.Size())
	}
	if d.IsDecoy("PNR99999") {
		t.Fatal("unknown ref reported as decoy")
	}
}

func TestDecoySetHitJournal(t *testing.T) {
	d := NewDecoySet(1, decoyRefs(10), 0.5)
	d.RecordHit("PNR00003", 0xabc, "bot-1", t0)
	d.RecordHit("PNR00007", 0xdef, "bot-2", t0.Add(time.Second))
	d.RecordHit("PNR00003", 0xabc, "bot-1", t0.Add(2*time.Second))

	hits := d.Hits()
	if len(hits) != 3 || d.HitCount() != 3 {
		t.Fatalf("journal %d entries, HitCount %d", len(hits), d.HitCount())
	}
	// Recording order preserved.
	if hits[0].Ref != "PNR00003" || hits[1].Ref != "PNR00007" || hits[2].At != t0.Add(2*time.Second) {
		t.Fatalf("journal out of order: %+v", hits)
	}
	// Hits returns a copy: mutating it must not touch the journal.
	hits[0].Ref = "mutated"
	if d.Hits()[0].Ref != "PNR00003" {
		t.Fatal("Hits exposed internal slice")
	}
}

func TestDecoySetConcurrentRecord(t *testing.T) {
	d := NewDecoySet(1, decoyRefs(10), 0.5)
	done := make(chan struct{}, 4)
	for w := range 4 {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := range 500 {
				d.IsDecoy("PNR00001")
				d.RecordHit("PNR00001", uint64(w), "k", t0.Add(time.Duration(i)))
			}
		}(w)
	}
	for range 4 {
		<-done
	}
	if d.HitCount() != 2000 {
		t.Fatalf("HitCount %d after concurrent recording", d.HitCount())
	}
}

// --- satellite backfill: honeypot hit accounting edges ---

func TestHoneypotFailedDecoyHoldNotCounted(t *testing.T) {
	h, _ := honeypotFixture(t)
	h.Redirect("attacker")
	// A hold against a flight the decoy does not mirror fails, and a failed
	// decoy hold must not inflate the absorbed-inventory count.
	req := holdReq(2)
	req.Flight = "NOPE"
	if _, err := h.RequestHold("attacker", req); err == nil {
		t.Fatal("hold on unknown flight succeeded")
	}
	if h.DecoyHolds() != 0 {
		t.Fatalf("failed decoy hold counted: DecoyHolds=%d", h.DecoyHolds())
	}
}

// --- satellite backfill: captcha edge cases ---

// withPassRates sets the human and solver success probabilities.
func withPassRates(human, solver float64) CaptchaOption {
	return func(g *CaptchaGate) { g.humanPass, g.solverPass = human, solver }
}

func TestCaptchaGateDegeneratePassRates(t *testing.T) {
	// A zero-pass gate fails everyone; the attacker still pays per attempt.
	never := NewCaptchaGate(simrand.New(1), withPassRates(0, 0), WithSolveCost(0.01))
	for range 50 {
		if never.ChallengeHuman() || never.ChallengeBot() {
			t.Fatal("zero pass rate let a challenge through")
		}
	}
	if never.HumanFriction() != 50 {
		t.Fatalf("friction %d, want 50", never.HumanFriction())
	}
	if math.Abs(never.BotSpendUSD()-0.5) > 1e-9 {
		t.Fatalf("failed solves must still cost: spend %v", never.BotSpendUSD())
	}

	// A certain-pass gate breaks nothing and solves everything.
	always := NewCaptchaGate(simrand.New(1), withPassRates(1, 1))
	for range 50 {
		if !always.ChallengeHuman() || !always.ChallengeBot() {
			t.Fatal("certain pass rate failed a challenge")
		}
	}
	if always.HumanFriction() != 0 {
		t.Fatalf("friction %d", always.HumanFriction())
	}
}

func TestCaptchaGateHumanChallengesCostNothing(t *testing.T) {
	// Human-only traffic accrues no solver spend.
	g := NewCaptchaGate(simrand.New(1))
	for range 20 {
		g.ChallengeHuman()
	}
	if g.BotSpendUSD() != 0 {
		t.Fatalf("human challenges leaked into bot accounting: spend %v", g.BotSpendUSD())
	}
}

func TestCaptchaGateDefaultSolveCost(t *testing.T) {
	g := NewCaptchaGate(simrand.New(1))
	for range 10 {
		g.ChallengeBot()
	}
	if want := 10 * DefaultSolveCostUSD; math.Abs(g.BotSpendUSD()-want) > 1e-9 {
		t.Fatalf("default solve cost: spend %v, want %v", g.BotSpendUSD(), want)
	}
}
