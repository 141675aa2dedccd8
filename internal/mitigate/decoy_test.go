package mitigate

import (
	"fmt"
	"math"
	"reflect"
	"testing"

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
	if !reflect.DeepEqual(a.decoys, b.decoys) {
		t.Fatalf("same seed, different decoys:\n%v\n%v", a.decoys, b.decoys)
	}
	c := NewDecoySet(8, refs, 0.25)
	if reflect.DeepEqual(a.decoys, c.decoys) {
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
		if len(d.decoys) != tc.want {
			t.Errorf("fraction %v: %d decoys, want %d", tc.fraction, len(d.decoys), tc.want)
		}
	}
	if d := NewDecoySet(1, nil, 0.5); len(d.decoys) != 0 || d.IsDecoy("PNR00000") {
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
	if decoys != len(d.decoys) {
		t.Fatalf("membership count %d != Size %d", decoys, len(d.decoys))
	}
	if d.IsDecoy("PNR99999") {
		t.Fatal("unknown ref reported as decoy")
	}
}

func TestDecoySetHitJournal(t *testing.T) {
	d := NewDecoySet(1, decoyRefs(10), 0.5)
	if d.HitCount() != 0 {
		t.Fatalf("fresh set HitCount %d", d.HitCount())
	}
	for range 3 {
		d.RecordHit()
	}
	if d.HitCount() != 3 {
		t.Fatalf("HitCount %d after 3 hits", d.HitCount())
	}
}

func TestDecoySetConcurrentRecord(t *testing.T) {
	d := NewDecoySet(1, decoyRefs(10), 0.5)
	done := make(chan struct{}, 4)
	for range 4 {
		go func() {
			defer func() { done <- struct{}{} }()
			for range 500 {
				d.IsDecoy("PNR00001")
				d.RecordHit()
			}
		}()
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
