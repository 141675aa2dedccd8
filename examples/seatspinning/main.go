// Seat-spinning walkthrough: replays the paper's case studies A and B
// end-to-end and prints the three artefacts they produced —
//
//  1. the Fig. 1 Number-in-Party distribution across the average week, the
//     attack week, and the week after the NiP<=4 cap;
//  2. the case-A operational statistics (fingerprint-rotation war, cap
//     adaptation, the attack ceasing two days before departure);
//  3. the case-B passenger-name-pattern detections for automated and
//     manual spinners.
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

	fmt.Println("=== Fig. 1 — NiP distribution across three weeks ===")
	fig1, err := core.RunFig1(seed)
	if err != nil {
		return err
	}
	fmt.Print(fig1.Table().String())
	fmt.Printf("attacker converged on NiP %d after the cap (%d holds in total)\n\n",
		fig1.AttackerFinalNiP, fig1.AttackerHolds)

	fmt.Println("=== Case A — the fingerprint rotation war ===")
	caseA, err := core.RunCaseA(seed)
	if err != nil {
		return err
	}
	fmt.Print(caseA.Table().String())
	fmt.Printf("(paper: rotation every ~5.3 h on average; attack ceased two days out)\n\n")

	fmt.Println("=== Case B — automated vs manual spinning, caught by names ===")
	caseB, err := core.RunCaseB(seed)
	if err != nil {
		return err
	}
	fmt.Print(caseB.Table().String())
	fmt.Println("\ntop findings:")
	max := 5
	for i, f := range caseB.Findings {
		if i >= max {
			break
		}
		fmt.Printf("  %-20s %-28s reservations=%d %s\n",
			f.Pattern.String(), f.Key, f.Reservations, f.Detail)
	}
	return nil
}
