package core

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"funabuse/internal/app"
	"funabuse/internal/attack"
	"funabuse/internal/fingerprint"
	"funabuse/internal/geo"
	"funabuse/internal/simrand"
	"funabuse/internal/sms"
	"funabuse/internal/workload"
)

func TestNewEnvRegistersFleetAndTarget(t *testing.T) {
	cfg := DefaultEnvConfig(1)
	env := NewEnv(cfg)
	flights := env.Bookings.Flights()
	if len(flights) != cfg.FleetSize+1 {
		t.Fatalf("flights = %d, want %d", len(flights), cfg.FleetSize+1)
	}
	av, err := env.Bookings.AvailabilityOf(cfg.TargetID)
	if err != nil {
		t.Fatalf("target not registered: %v", err)
	}
	if av.Capacity != cfg.TargetCap {
		t.Fatalf("target capacity %d", av.Capacity)
	}
	// The decoy mirrors the fleet.
	if _, err := env.Decoy.AvailabilityOf(cfg.TargetID); err != nil {
		t.Fatalf("decoy missing target: %v", err)
	}
	ids := env.FleetIDs(cfg)
	if len(ids) != cfg.FleetSize {
		t.Fatalf("FleetIDs = %d", len(ids))
	}
}

func TestEnvRunAdvancesClock(t *testing.T) {
	env := NewEnv(DefaultEnvConfig(2))
	if err := env.Run(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := env.Clock.Now(); !got.Equal(SimStart.Add(48 * time.Hour)) {
		t.Fatalf("clock at %v", got)
	}
}

func TestEnvDeterministicAcrossRuns(t *testing.T) {
	build := func() int {
		cfg := DefaultEnvConfig(7)
		env := NewEnv(cfg)
		flights := append(env.FleetIDs(cfg), cfg.TargetID)
		wl := workload.DefaultConfig(flights, SimStart.Add(24*time.Hour))
		pop := workload.NewPopulation(wl, env.App, nil, nil, env.Sched, env.RNG.Derive("pop"), env.Registry)
		pop.Start()
		if err := env.Run(24 * time.Hour); err != nil {
			t.Fatal(err)
		}
		return len(env.Bookings.Journal())
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("same-seed runs diverged: %d vs %d journal records", a, b)
	}
}

// TestQuotaExhaustionLocksOutLegitimateUsers reproduces the paper's
// Section II-B collateral: "if the volume of SMS exceeds the application's
// quotas contracted with a network operator, legitimate users may be
// unable to leverage this feature."
func TestQuotaExhaustionLocksOutLegitimateUsers(t *testing.T) {
	envCfg := DefaultEnvConfig(3)
	envCfg.SMSQuota = 600 // a small contracted volume
	envCfg.TargetID = "FD400"
	envCfg.TargetDep = SimStart.Add(30 * 24 * time.Hour)
	env := NewEnv(envCfg)

	flights := append(env.FleetIDs(envCfg), envCfg.TargetID)
	wl := workload.DefaultConfig(flights, SimStart.Add(3*24*time.Hour))
	wl.HoldsPerHour = 30
	wl.OTPPerHour = 20
	pop := workload.NewPopulation(wl, env.App, env.App, nil, env.Sched, env.RNG.Derive("pop"), env.Registry)
	pop.Start()

	rot := fingerprint.NewRotator(env.RNG.Derive("rot"),
		fingerprint.NewGenerator(env.RNG.Derive("fp")), fingerprint.WithSpoofing())
	pumper := attack.NewSMSPumper(attack.SMSPumperConfig{
		ID:           "pump-1",
		Flight:       envCfg.TargetID,
		Tickets:      2,
		SendInterval: 30 * time.Second,
		Until:        SimStart.Add(3 * 24 * time.Hour),
	}, env.App, env.App, env.Sched, env.RNG.Derive("pumper"), env.Proxies, rot, env.Registry)
	pumper.Start()

	if err := env.Run(3 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}

	if env.Gateway.Sent() != 600 {
		t.Fatalf("gateway sent %d, want quota-bounded 600", env.Gateway.Sent())
	}
	// Legitimate users were locked out once the pump burned the quota.
	if pop.Friction() == 0 {
		t.Fatal("no legitimate friction despite exhausted quota")
	}
	// And a legitimate OTP attempted now fails outright.
	to := geo.PlanFor(env.Registry.MustLookup("FR")).Random(simrand.New(9))
	err := env.App.RequestOTP(app.ClientContext{
		IP: "10.0.0.9", ClientKey: "victim", Cookie: "victim",
	}, to, "login")
	if !errors.Is(err, sms.ErrQuotaExceeded) {
		t.Fatalf("post-exhaustion OTP err = %v, want ErrQuotaExceeded", err)
	}
}

func TestEnvSeedsChangeOutcomes(t *testing.T) {
	counts := map[int]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultEnvConfig(seed)
		env := NewEnv(cfg)
		flights := append(env.FleetIDs(cfg), cfg.TargetID)
		wl := workload.DefaultConfig(flights, SimStart.Add(12*time.Hour))
		pop := workload.NewPopulation(wl, env.App, nil, nil, env.Sched, env.RNG.Derive("pop"), env.Registry)
		pop.Start()
		if err := env.Run(12 * time.Hour); err != nil {
			t.Fatal(err)
		}
		counts[len(env.Bookings.Journal())] = true
	}
	if len(counts) < 2 {
		t.Fatalf("three seeds produced identical journals: %v", counts)
	}
}

func TestFleetIDsStable(t *testing.T) {
	cfg := DefaultEnvConfig(1)
	env := NewEnv(cfg)
	ids := env.FleetIDs(cfg)
	for i, id := range ids {
		want := "FL" + strconv.Itoa(100+i)
		if string(id) != want {
			t.Fatalf("FleetIDs[%d] = %s, want %s", i, id, want)
		}
	}
}
