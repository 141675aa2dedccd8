// Quickstart: stand up the defended airline application, drive one day of
// legitimate traffic plus a seat-spinning bot through it, and watch the
// adaptive defender respond — all in deterministic virtual time, in well
// under a second of wall clock.
package main

import (
	"fmt"
	"log"
	"time"

	"funabuse/internal/attack"
	"funabuse/internal/core"
	"funabuse/internal/proxy"
	"funabuse/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Build the environment: 150 background flights plus the target
	//    flight "FA100", an SMS gateway, residential proxies, and the
	//    application with block lists enabled.
	envCfg := core.DefaultEnvConfig(42)
	envCfg.Defence = core.DefenceConfig{Blocklists: true}
	envCfg.TargetDep = core.SimStart.Add(7 * 24 * time.Hour)
	env := core.NewEnv(envCfg)

	// 2. Legitimate traffic: booking journeys with the Fig. 1 party-size
	//    mix, arriving at a diurnal rate.
	wl := workload.DefaultConfig(env.Flights(), core.SimStart.Add(2*24*time.Hour))
	pop := workload.NewPopulation(wl, env.App, env.App, nil, env.Sched, env.RNG.Derive("pop"), env.Registry)
	pop.Start()

	// 3. Let half a day pass so the defender can learn what "normal"
	//    looks like, then start it.
	if err := env.Run(12 * time.Hour); err != nil {
		return err
	}
	baseline := env.Bookings.JournalBetween(core.SimStart, env.Sched.Now())
	defender := core.NewDefender(core.DefaultDefenderConfig(), env.App, env.Sched, baseline)
	defender.Start()

	// 4. The attacker: an automated seat spinner holding six seats per
	//    reservation on FA100, re-holding each time the 30-minute hold
	//    expires, spoofing organic browser fingerprints and exiting
	//    through per-request residential proxies.
	spinner := attack.NewSeatSpinner(attack.SeatSpinnerConfig{
		ID:             "spin-1",
		Flight:         envCfg.TargetID,
		TargetNiP:      6,
		ReholdInterval: envCfg.Booking.HoldTTL,
		Departure:      envCfg.TargetDep,
		Parallel:       8,
	}, env.App, env.Sched, env.RNG.Derive("spinner"), env.SpoofedRotator(),
		env.Proxies.NewSession("SG", proxy.RotatePerRequest))
	spinner.Start()

	// 5. Run a day and a half of virtual time.
	if err := env.Run(2 * 24 * time.Hour); err != nil {
		return err
	}

	// 6. Report.
	stats := spinner.Stats()
	fmt.Println("== quickstart: one day of attack vs adaptive defence ==")
	fmt.Printf("legitimate holds:      %d (friction: %d)\n", pop.Holds(), pop.Friction())
	fmt.Printf("attacker holds:        %d of %d attempts\n", stats.Holds, stats.Attempts)
	fmt.Printf("attacker blocked:      %d times, rotated identity %d times\n",
		stats.Blocked, len(stats.Rotations))
	if len(stats.Rotations) > 0 {
		fmt.Printf("mean rotation delay:   %v (paper: ~5.3h)\n",
			stats.MeanRotationInterval().Round(time.Minute))
	}
	fmt.Printf("defender rules:        %d installed\n", defender.RulesAdded())
	if at, ok := defender.CapApplied(); ok {
		fmt.Printf("NiP cap applied:       %v after attack start\n",
			at.Sub(core.SimStart.Add(12*time.Hour)).Round(time.Hour))
	}
	av, err := env.Bookings.AvailabilityOf(envCfg.TargetID)
	if err != nil {
		return err
	}
	fmt.Printf("target flight now:     %d held / %d sold / %d open of %d\n",
		av.Held, av.Sold, av.Available, av.Capacity)
	return nil
}
