package loadgen

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/entitygraph"
	"funabuse/internal/httpgate"
	"funabuse/internal/mitigate"
	"funabuse/internal/simclock"
)

// TestTargetGateDecideZeroAllocs pins the whole decision path of the stack
// NewTargetGate serves — every gate layer plus the decision hook feeding
// the deployer (decoys wired), the account store and the entity graph —
// at zero allocations for a recurring identity naming a booking reference.
// Only first sight of a key may allocate: the map that must retain it
// clones it then.
func TestTargetGateDecideZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	refs := []string{"PNR00001", "PNR00002", "PNR00003", "PNR00004"}
	decoys := mitigate.NewDecoySet(1, refs, 0.25)
	ref := refs[0]
	if decoys.IsDecoy(ref) {
		ref = refs[1]
	}
	graph := entitygraph.New(entitygraph.Config{FlagScore: 1e9}) // never flags: the identity must stay admitted
	accounts := account.NewStore(account.Config{})
	gate, _, deployer := NewTargetGate(TargetConfig{
		Clock:               simclock.NewManual(t0),
		RuleThreshold:       1 << 30,
		RuleWindow:          time.Minute,
		RulePaths:           []string{PathHold, PathSMS},
		Decoys:              decoys,
		Accounts:            accounts,
		AccountBaseLimit:    1 << 20,
		AccountWindow:       time.Minute,
		AccountBookingPaths: []string{PathHold},
		EntityGraph:         graph,
		EntityPaths:         []string{PathHold, PathSMS},
		EntityWeak:          0.01,
		PathLimit:           1 << 30,
		PathWindow:          time.Minute,
		ProfileLimit:        1 << 30,
		ProfileWindow:       time.Minute,
		ResourceLimit:       1 << 30,
		ResourceWindow:      time.Minute,
	})
	r := httptest.NewRequest(http.MethodGet, PathHold+"?pnr="+ref, nil)
	info := httpgate.ClientInfo{IP: "198.51.100.7", Fingerprint: 0xfeed, HasFingerprint: true, ClientKey: "member-7"}
	gate.Decide(r, info) // first sight: limiter keys, account, graph nodes
	if avg := testing.AllocsPerRun(512, func() {
		if d := gate.Decide(r, info); d.Denied() || d.Degraded != 0 {
			t.Fatalf("decision %+v, want a healthy admit", d)
		}
	}); avg != 0 {
		t.Fatalf("Decide on the NewTargetGate stack allocates %v/op, want 0", avg)
	}

	// The measured calls went through every sink, not around them.
	if st := graph.Stats(); st.Observations != 514 || st.Nodes != 3 {
		t.Fatalf("graph saw %+v, want 514 observations of 3 nodes", st)
	}
	if snap, ok := accounts.Snapshot("member-7"); !ok || snap.Requests != 514 || snap.Bookings != 514 {
		t.Fatalf("account snapshot %+v ok=%v, want 514 requests, all bookings", snap, ok)
	}
	if decoys.HitCount() != 0 || len(deployer.Rules()) != 0 {
		t.Fatalf("clean reference tripped the deployer: %d hits, %d rules", decoys.HitCount(), len(deployer.Rules()))
	}
}
