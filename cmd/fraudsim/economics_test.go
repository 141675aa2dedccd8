package main

import "testing"

// TestEconomicsROIOrdering asserts the E18 tentpole claim on the seed-1
// run: each added defence rung strictly lowers the attacker's return on
// investment — no tiering > tiering > tiering + honeypots — without
// costing honest traffic. Decoy hits, burned accounts and budget-stopped
// arrivals appear only in the honeypot arm, whose attacker finishes under
// water; neither tiering-only arm deploys a rule.
func TestEconomicsROIOrdering(t *testing.T) {
	plan, outcomes := mustOutcomes(t, economics)

	attacker := econAttackerClass(plan.Scenario)
	roi := make([]float64, len(outcomes))
	for i, o := range outcomes {
		r, ok := o.read.ledger.ROI()
		if !ok {
			t.Fatalf("arm %q: attacker spent nothing", o.arm.name)
		}
		roi[i] = r

		// No arm may price out honest customers.
		rate, ok := o.result.HonestAdmitRate()
		if !ok {
			t.Fatalf("arm %q: honest traffic completed nothing", o.arm.name)
		}
		if rate < 0.99 {
			t.Fatalf("arm %q: honest admit rate %v, want >= 0.99", o.arm.name, rate)
		}

		ac := o.result.Classes[attacker]
		if o.arm.decoys {
			if o.read.decoys.HitCount() == 0 {
				t.Fatalf("arm %q: no decoy hits; the enumeration must touch seeded inventory", o.arm.name)
			}
			if len(o.read.rules) == 0 {
				t.Fatalf("arm %q: decoy hits deployed no rules", o.arm.name)
			}
			if ac.Burned == 0 {
				t.Fatalf("arm %q: rules burned no accounts", o.arm.name)
			}
			if ac.BudgetSkipped == 0 {
				t.Fatalf("arm %q: burn costs never exhausted a budget", o.arm.name)
			}
		} else {
			if len(o.read.rules) != 0 {
				t.Fatalf("arm %q deployed %d rules without decoys", o.arm.name, len(o.read.rules))
			}
			if ac.Burned != 0 || ac.BudgetSkipped != 0 {
				t.Fatalf("arm %q: burned=%d budgetSkipped=%d, want 0 without decoy rules",
					o.arm.name, ac.Burned, ac.BudgetSkipped)
			}
		}
	}

	for i := 1; i < len(roi); i++ {
		if !(roi[i] < roi[i-1]) {
			t.Fatalf("ROI not strictly decreasing: arm %q %v !< arm %q %v",
				outcomes[i].arm.name, roi[i], outcomes[i-1].arm.name, roi[i-1])
		}
	}
	// The honeypot arm pushes the operation under water outright.
	last := outcomes[len(outcomes)-1]
	if p := last.read.ledger.ProfitUSD(); p >= 0 {
		t.Fatalf("honeypot arm attacker profit $%.2f, want negative", p)
	}
}
