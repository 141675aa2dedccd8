// SMS-pumping walkthrough: replays the Airline D boarding-pass pumping
// incident (case study C) end-to-end —
//
//  1. regenerates Table I, the per-country SMS surge between the baseline
//     week and the attack week;
//  2. runs the rate-limit key ablation showing why the path-level limit
//     detected the attack late while a per-locator limit would have
//     strangled it immediately;
//  3. sweeps the economic deterrents (CAPTCHA solve tax, locator caps)
//     over the attacker's profit and loss.
package main

import (
	"fmt"
	"log"

	"funabuse/internal/core"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const seed = 7

	fmt.Println("=== Table I — per-country SMS surge ===")
	t1, err := core.RunTable1(seed)
	if err != nil {
		return err
	}
	fmt.Print(t1.Table().String())
	fmt.Printf("global boarding-pass increase %+.1f%% (paper: ~25%%); %d countries (paper: 42)\n",
		t1.GlobalIncreasePct, t1.AttackCountries)
	fmt.Printf("owner paid $%.0f for pump traffic; attacker's revenue share $%.0f\n\n",
		t1.AppCostUSD, t1.FraudRevenueUSD)

	fmt.Println("=== Case C — which rate-limit key would have caught it? ===")
	cc, err := core.RunCaseC(seed)
	if err != nil {
		return err
	}
	fmt.Print(cc.Table().String())
	fmt.Println()

	fmt.Println("=== Economic deterrents — attacker P&L ===")
	econ, err := core.RunEconomics(seed)
	if err != nil {
		return err
	}
	fmt.Print(econ.Table().String())
	fmt.Printf("break-even CAPTCHA solve price: $%.4f — far above the ~$0.002 market rate,\n",
		econ.BreakEvenSolveCostUSD)
	fmt.Println("so challenges tax the attack; only volume caps starve it.")
	return nil
}
