package main

import (
	"fmt"
	"io"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/httpgate"
	"funabuse/internal/loadgen"
	"funabuse/internal/metrics"
	"funabuse/internal/mitigate"
	"funabuse/internal/simclock"
)

// The economics scenario (experiment E18) replays one budget-constrained
// seat-spinning plan — attackers paying per account registration, per
// request and per burned account, enumerating their own booking-reference
// range — against three defence arms: no account tiering, loyalty-tiered
// gating (bulk seat-map probing restricted to members, per-tier rate
// multipliers), and tiering plus live decoy inventory seeded into the
// attacker's enumeration space. The headline contrast is the attacker's
// ROI over time: tiering cuts revenue, and honeypots push the operation
// under water — admitted decoy bookings earn nothing while every hit
// deploys an instant blocking rule that burns the account behind it.
var economics = scenario[econArm, econRead]{
	name: "economics",
	plan: loadgen.EconomicsScenario,
	// The arms are the three rungs of the E18 comparison.
	arms: []econArm{
		{name: "no tiering"},
		{name: "tiering", tiering: true},
		{name: "tiering + honeypots", tiering: true, decoys: true},
	},
	boot:   bootEconArm,
	report: econReport,
}

// Economics defence tuning: guests get a per-account rate allowance low
// enough to blunt a burst while the member/silver/gold multipliers keep
// established customers unthrottled, and roughly a third of the
// attacker's reference space is decoy inventory.
const (
	econGuestLimit    = 40
	econLimitWindow   = time.Minute
	econDecoyFraction = 0.3
	econBucket        = 15 * time.Second
)

// econArm is one defence configuration the plan is replayed against.
type econArm struct {
	name    string
	tiering bool
	decoys  bool
}

func (a econArm) armName() string { return a.name }

// econRead is what one arm reads back: deployed rules, the decoy set (nil
// without honeypots) and the attacker's ROI ledger with the run folded in.
type econRead struct {
	rules  []loadgen.Rule
	decoys *mitigate.DecoySet
	ledger *loadgen.ROILedger
}

// econOutcome is one arm's measurements, joined for the report.
type econOutcome = outcome[econArm, econRead]

// econAttackerClass locates the scenario's priced class.
func econAttackerClass(sc loadgen.Scenario) int {
	for ci, c := range sc.Classes {
		if c.Econ != nil {
			return ci
		}
	}
	return -1
}

// bootEconArm serves the arm's defended target and feeds every
// observation to the arm's ROI ledger, folding the result in once the
// replay is done. Tiered arms pre-register the honest fleet as
// long-standing gold members — established customers whose history the
// attacker cannot buy — while attacker accounts are created on first
// sight as guests.
func bootEconArm(run loadRun, clock simclock.Clock, arm econArm) (target[econRead], error) {
	sc := run.plan.Scenario
	attacker := econAttackerClass(sc)
	if attacker < 0 {
		return target[econRead]{}, fmt.Errorf("scenario has no priced class")
	}

	tcfg := loadgen.TargetConfig{Clock: clock}
	if arm.tiering {
		store := account.NewStore(account.Config{})
		for _, c := range sc.Classes {
			if c.Kind.Abusive() {
				continue
			}
			// Honest sessions are stable per client, named by the fleet.
			for i := 0; i < c.Clients; i++ {
				store.Register(fmt.Sprintf("%s-%d", c.Name, i),
					sc.Start.Add(-365*24*time.Hour), 25, sc.Start)
			}
		}
		tcfg.Accounts = store
		tcfg.AccountRestricted = map[string]int{loadgen.PathSeatMap: int(account.Member)}
		tcfg.AccountBaseLimit = econGuestLimit
		tcfg.AccountWindow = econLimitWindow
		tcfg.AccountBookingPaths = []string{loadgen.PathHold}
	}
	var decoys *mitigate.DecoySet
	if arm.decoys {
		decoys = mitigate.NewDecoySet(sc.Seed, sc.ClassRefs(attacker), econDecoyFraction)
		tcfg.Decoys = decoys
	}
	tgt, err := loadgen.StartTarget(tcfg)
	if err != nil {
		return target[econRead]{}, err
	}

	ledger := loadgen.NewROILedger(loadgen.ROILedgerConfig{
		Econ:   *sc.Classes[attacker].Econ,
		Class:  attacker,
		Start:  sc.Start,
		Bucket: econBucket,
		Decoys: decoys,
	})
	read := func(res *loadgen.Result) econRead {
		ledger.FoldResult(res)
		out := econRead{ledger: ledger, decoys: decoys}
		if tgt.Deployer != nil {
			out.rules = tgt.Deployer.Rules()
		}
		return out
	}
	return target[econRead]{
		url:     tgt.URL,
		observe: ledger.Observe,
		read:    read,
		close:   func() { _ = tgt.Close() },
	}, nil
}

// econReport renders the per-arm comparison. Every column replays the
// same attacker cost sheet, so every difference is the defence
// configuration's.
func econReport(w io.Writer, run loadRun, outs []econOutcome) {
	t := newArmTable("attacker economics report", outs)
	attacker := econAttackerClass(run.plan.Scenario)
	attackerOf := func(o econOutcome) loadgen.ClassResult {
		return o.result.Classes[attacker]
	}

	t.planHash()
	t.completed()
	t.honestAdmit()
	t.leakRate("attacker leak rate")
	t.row("rules deployed", func(o econOutcome) string {
		return metrics.FormatInt(int64(len(o.read.rules)))
	})
	t.row("tier denials", func(o econOutcome) string {
		return metrics.FormatInt(int64(attackerOf(o).Denied[httpgate.ReasonAccountTier]))
	})
	t.row("account rate-limit denials", func(o econOutcome) string {
		return metrics.FormatInt(int64(attackerOf(o).Denied[httpgate.ReasonAccountLimit]))
	})
	t.row("decoy hits", func(o econOutcome) string {
		if o.read.decoys == nil {
			return "n/a"
		}
		return metrics.FormatInt(int64(o.read.decoys.HitCount()))
	})
	t.row("accounts registered", func(o econOutcome) string {
		return metrics.FormatInt(int64(attackerOf(o).Registrations))
	})
	t.row("accounts burned", func(o econOutcome) string {
		return metrics.FormatInt(int64(attackerOf(o).Burned))
	})
	t.row("budget-stopped arrivals", func(o econOutcome) string {
		return metrics.FormatInt(int64(attackerOf(o).BudgetSkipped))
	})
	t.row("attacker spend", func(o econOutcome) string {
		spend, _, _ := o.read.ledger.Totals()
		return fmt.Sprintf("$%.2f", spend)
	})
	t.row("believed revenue", func(o econOutcome) string {
		_, believed, _ := o.read.ledger.Totals()
		return fmt.Sprintf("$%.2f", believed)
	})
	t.row("actual revenue", func(o econOutcome) string {
		_, _, actual := o.read.ledger.Totals()
		return fmt.Sprintf("$%.2f", actual)
	})
	t.row("attacker profit", func(o econOutcome) string {
		return fmt.Sprintf("$%.2f", o.read.ledger.ProfitUSD())
	})
	t.row("attacker ROI", func(o econOutcome) string {
		roi, ok := o.read.ledger.ROI()
		if !ok {
			return "n/a"
		}
		return fmt.Sprintf("%.2f", roi)
	})
	for _, offset := range []time.Duration{econBucket, 2 * econBucket, 3 * econBucket, 4 * econBucket} {
		at := run.plan.Scenario.Start.Add(offset)
		t.row(fmt.Sprintf("cumulative profit @ %s", offset), func(o econOutcome) string {
			return fmt.Sprintf("$%.2f", o.read.ledger.At(at).ProfitUSD())
		})
	}
	fmt.Fprint(w, t.String())
}
