package loadgen

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/httpgate"
	"funabuse/internal/mitigate"
	"funabuse/internal/simclock"
)

var econT0 = time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)

func econFixture() EconModel {
	return EconModel{
		RegistrationUSD: 2.0,
		RequestUSD:      0.01,
		BurnUSD:         1.0,
		RevenueUSD:      0.5,
		BudgetUSD:       8.0,
	}
}

func obsAt(at time.Time, class int, verdict string, status int) Observation {
	return Observation{
		Arrival: Arrival{At: at, Class: class, Resource: -1},
		Verdict: verdict,
		Status:  status,
	}
}

func TestROILedgerPricesObservations(t *testing.T) {
	l := NewROILedger(ROILedgerConfig{Econ: econFixture(), Class: 1, Start: econT0, Bucket: 10 * time.Second})

	l.Observe(obsAt(econT0, 1, "", 200))                                  // admitted: spend + revenue
	l.Observe(obsAt(econT0.Add(time.Second), 1, "rl", 429))               // denied: spend only
	l.Observe(obsAt(econT0.Add(2*time.Second), 1, "", 0))                 // transport failure: spend only
	l.Observe(obsAt(econT0.Add(15*time.Second), 1, "", 200))              // admitted, second bucket
	l.Observe(obsAt(econT0.Add(3*time.Second), 0, "", 200))               // other class: ignored
	l.Observe(obsAt(econT0.Add(4*time.Second), 1, "budget-exhausted", 0)) // never sent: no spend

	spend, believed, actual := l.Totals()
	if want := 0.04; spend != want {
		t.Fatalf("spend = %v, want %v", spend, want)
	}
	if believed != 1.0 || actual != 1.0 {
		t.Fatalf("revenue = %v/%v, want 1.0/1.0", believed, actual)
	}

	if got := l.At(econT0.Add(10 * time.Second)); got.ActualUSD != 0.5 {
		t.Fatalf("At(+10s) revenue = %v, want only the first bucket's 0.5", got.ActualUSD)
	}
	if got := l.At(econT0.Add(time.Minute)); got.ActualUSD != 1.0 {
		t.Fatalf("At(+1m) revenue = %v, want the full 1.0", got.ActualUSD)
	}
}

// TestROILedgerDecoyRevenue pins the honeypot's economic mechanism: an
// admitted decoy request books believed revenue but no actual revenue.
func TestROILedgerDecoyRevenue(t *testing.T) {
	refs := []string{ResourceRef(1000), ResourceRef(1001)}
	decoys := mitigate.NewDecoySet(1, refs, 2) // fraction > 1: everything is a decoy
	l := NewROILedger(ROILedgerConfig{Econ: econFixture(), Class: 0, Start: econT0, Decoys: decoys})

	o := obsAt(econT0, 0, "", 200)
	o.Arrival.Resource = 1000
	l.Observe(o)
	o.Arrival.Resource = 2000 // not a decoy ref
	l.Observe(o)

	_, believed, actual := l.Totals()
	if believed != 1.0 {
		t.Fatalf("believed = %v, want 1.0: the attacker's books show both sales", believed)
	}
	if actual != 0.5 {
		t.Fatalf("actual = %v, want 0.5: the decoy sale pays nothing", actual)
	}
}

func TestROILedgerFoldResult(t *testing.T) {
	l := NewROILedger(ROILedgerConfig{Econ: econFixture(), Class: 0, Start: econT0, Bucket: 10 * time.Second})
	l.FoldResult(&Result{Classes: []ClassResult{{
		Registrations: 3,
		Burned:        2,
		Rotations: []Rotation{
			{At: econT0.Add(5 * time.Second)},
			{At: econT0.Add(25 * time.Second)},
		},
	}}})

	// One initial registration at bucket 0 ($2), two rotations at $3 each.
	spend, _, _ := l.Totals()
	if want := 8.0; spend != want {
		t.Fatalf("spend = %v, want %v", spend, want)
	}
	if got := l.At(econT0.Add(10 * time.Second)).SpendUSD; got != 5.0 {
		t.Fatalf("At(+10s) spend = %v, want 5.0 (registration + first burn)", got)
	}

	if roi, ok := l.ROI(); !ok || roi != 0 {
		t.Fatalf("ROI = %v, %v; want 0, true", roi, ok)
	}
	if p := l.ProfitUSD(); p != -8.0 {
		t.Fatalf("profit = %v, want -8.0", p)
	}
}

func TestROILedgerROIUndefinedWithoutSpend(t *testing.T) {
	l := NewROILedger(ROILedgerConfig{Econ: econFixture(), Class: 0, Start: econT0})
	if _, ok := l.ROI(); ok {
		t.Fatal("ROI defined with zero spend")
	}
}

// TestClientBudgetStopsCharges drives charge() to the budget edge: a
// client keeps paying per request until its spend reaches the budget,
// then every further charge is refused.
func TestClientBudgetStopsCharges(t *testing.T) {
	cl := &client{econ: &EconModel{RequestUSD: 3.0, BudgetUSD: 10.0}}
	for i := 0; i < 4; i++ {
		if !cl.charge() {
			t.Fatalf("charge %d refused below budget", i)
		}
	}
	// Spend is now 12 >= 10: exhausted (overshoot by one request allowed).
	if cl.charge() {
		t.Fatal("charge accepted past budget")
	}
	if cl.spentUSD != 12.0 {
		t.Fatalf("spent = %v, want 12.0", cl.spentUSD)
	}
}

func TestClientWithoutEconNeverRefuses(t *testing.T) {
	cl := &client{}
	for i := 0; i < 100; i++ {
		if !cl.charge() {
			t.Fatal("unpriced client refused a charge")
		}
	}
}

func TestAccountFeederObserves(t *testing.T) {
	store := account.NewStore(account.Config{})
	clock := simclock.NewManual(econT0)
	hook, _ := decisionHook(TargetConfig{Clock: clock, Accounts: store, AccountBookingPaths: []string{PathHold}}, nil)

	hold := httptest.NewRequest(http.MethodGet, PathHold, nil)
	search := httptest.NewRequest(http.MethodGet, PathSearch, nil)
	info := httpgate.ClientInfo{ClientKey: "acct-1"}
	hook(hold, info, "")
	hook(search, info, "")
	hook(hold, info, "rate-limit-path")
	hook(hold, httpgate.ClientInfo{}, "") // anonymous: ignored

	snap, ok := store.Snapshot("acct-1")
	if !ok {
		t.Fatal("account not created on first sight")
	}
	if snap.Requests != 3 || snap.Bookings != 1 || snap.Denials != 1 {
		t.Fatalf("snapshot = %d req / %d book / %d deny, want 3/1/1", snap.Requests, snap.Bookings, snap.Denials)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d accounts, want 1", store.Len())
	}
}

// TestEconomicsScenarioShape validates the E18 plan compiles and pins
// the properties the experiment's economics depend on: a priced abusive
// class with a disjoint reference range, and a plan hash stable per seed.
func TestEconomicsScenarioShape(t *testing.T) {
	sc := EconomicsScenario(1, econT0)
	plan, err := BuildPlan(sc)
	if err != nil {
		t.Fatalf("build plan: %v", err)
	}
	if plan.Hash() != BuildPlanHashOrDie(t, EconomicsScenario(1, econT0)) {
		t.Fatal("plan hash unstable across builds of one seed")
	}

	var priced *Class
	for ci := range sc.Classes {
		if sc.Classes[ci].Econ != nil {
			priced = &sc.Classes[ci]
		}
	}
	if priced == nil {
		t.Fatal("scenario has no priced class")
	}
	if !priced.Kind.Abusive() {
		t.Fatal("priced class is not abusive")
	}
	if priced.ResourceBase == 0 {
		t.Fatal("attacker enumerates the honest reference range; decoys would hit honest bookings")
	}
	refs := sc.ClassRefs(1)
	if len(refs) != priced.Resources {
		t.Fatalf("ClassRefs returned %d refs, want %d", len(refs), priced.Resources)
	}
	if refs[0] != ResourceRef(priced.ResourceBase) {
		t.Fatalf("first ref %q, want %q", refs[0], ResourceRef(priced.ResourceBase))
	}
}

// BuildPlanHashOrDie rebuilds a scenario's plan and returns its hash.
func BuildPlanHashOrDie(t *testing.T, sc Scenario) uint64 {
	t.Helper()
	plan, err := BuildPlan(sc)
	if err != nil {
		t.Fatalf("build plan: %v", err)
	}
	return plan.Hash()
}
