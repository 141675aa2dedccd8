package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"funabuse/internal/attack"
	"funabuse/internal/booking"
	"funabuse/internal/detect"
	"funabuse/internal/fingerprint"
	"funabuse/internal/metrics"
	"funabuse/internal/proxy"
	"funabuse/internal/runner"
	"funabuse/internal/weblog"
	"funabuse/internal/workload"
)

// CaseBResult reproduces case study B: automated Seat Spinning with
// structured passenger details (Airline B, October 2024) versus manual Seat
// Spinning with a permuted name pool and hand typos (Airline C, December
// 2024) — and the paper's point that neither triggers classical bot
// detection while both fall to name-pattern analysis.
type CaseBResult struct {
	// AutoFlagged reports the automated attacker was caught by name
	// patterns, and which pattern identified it.
	AutoFlagged  bool
	AutoPatterns []string
	// ManualFlagged reports the manual attacker was caught, and how.
	ManualFlagged  bool
	ManualPatterns []string
	// HumanKeysFlagged counts legitimate client keys swept up (false
	// positives of the name detector).
	HumanKeysFlagged int
	// VolumeRulesAutoRecall is the classical detector's recall on the
	// automated attacker's sessions (the paper: ~zero).
	VolumeRulesAutoRecall float64
	// VolumeRulesManualRecall is the same for the manual attacker.
	VolumeRulesManualRecall float64
	// GraphAutoRecall and GraphManualRecall are the navigation-graph
	// detector's recall per attacker. The manual attacker keeps cookies
	// and fills sessions with nothing but reservation posts, so the
	// degenerate-loop heuristic catches it where volume rules cannot.
	GraphAutoRecall   float64
	GraphManualRecall float64
	// Findings is the full detector output for inspection.
	Findings []detect.NameFinding
}

// Table renders the case-study comparison.
func (r CaseBResult) Table() *metrics.Table {
	t := metrics.NewTable("Case B — automated vs manual Seat Spinning detection",
		"Attacker", "Name patterns", "Caught by names", "Volume-rule recall", "Graph-rule recall")
	t.AddRow("automated (rotating birthdate)", strings.Join(r.AutoPatterns, ","),
		fmt.Sprintf("%v", r.AutoFlagged), fmt.Sprintf("%.2f", r.VolumeRulesAutoRecall),
		fmt.Sprintf("%.2f", r.GraphAutoRecall))
	t.AddRow("manual (permuted pool + typos)", strings.Join(r.ManualPatterns, ","),
		fmt.Sprintf("%v", r.ManualFlagged), fmt.Sprintf("%.2f", r.VolumeRulesManualRecall),
		fmt.Sprintf("%.2f", r.GraphManualRecall))
	t.AddRow("legitimate keys falsely flagged", fmt.Sprintf("%d", r.HumanKeysFlagged), "", "", "")
	return t
}

// report writes the table.
func (r CaseBResult) report(w io.Writer, csv bool) {
	emit(w, r.Table(), csv)
}

// sample flattens the headline scalars for a replicate sweep.
func (r CaseBResult) sample() runner.Sample {
	var b sample
	b.addBool("auto_flagged", r.AutoFlagged)
	b.addBool("manual_flagged", r.ManualFlagged)
	b.addInt("human_keys_flagged", r.HumanKeysFlagged)
	b.add("volume_rules_auto_recall", r.VolumeRulesAutoRecall)
	b.add("volume_rules_manual_recall", r.VolumeRulesManualRecall)
	b.add("graph_auto_recall", r.GraphAutoRecall)
	b.add("graph_manual_recall", r.GraphManualRecall)
	return b.s
}

// RunCaseB builds three days of mixed traffic — legitimate bookings, an
// automated structured spinner and a manual spinner — then runs both the
// passenger-detail detector and the classical volume rules offline.
func RunCaseB(seed uint64) (CaseBResult, error) {
	const horizon = 3 * 24 * time.Hour
	envCfg := DefaultEnvConfig(seed)
	envCfg.TargetDep = SimStart.Add(10 * 24 * time.Hour)
	env := NewEnv(envCfg)

	flights := append(env.FleetIDs(envCfg), envCfg.TargetID)
	wl := workload.DefaultConfig(flights, SimStart.Add(horizon))
	wl.HoldsPerHour = 50
	pop := workload.NewPopulation(wl, env.App, nil, nil, env.Sched, env.RNG.Derive("pop"), env.Registry)
	pop.Start()

	// Automated attacker: fixed lead name, rotating birthdate, overlapping
	// pool members (Airline B pattern). Low NiP to blend in.
	rot := fingerprint.NewRotator(
		env.RNG.Derive("rot"),
		fingerprint.NewGenerator(env.RNG.Derive("fpgen")),
		fingerprint.WithSpoofing(),
	)
	auto := attack.NewSeatSpinner(attack.SeatSpinnerConfig{
		ID:             "autob-1",
		Flight:         envCfg.TargetID,
		TargetNiP:      2,
		ReholdInterval: envCfg.Booking.HoldTTL,
		Departure:      envCfg.TargetDep,
		Parallel:       6,
	}, env.App, env.Sched, env.RNG.Derive("auto"), rot,
		env.Proxies.NewSession("SG", proxy.RotatePerRequest))
	auto.Start()

	// Manual attacker: fixed name set, permuted order, occasional typos,
	// broad IP range, organic fingerprints (Airline C pattern).
	manual := attack.NewManualSpinner(attack.ManualSpinnerConfig{
		ID:        "manc-1",
		Flight:    envCfg.TargetID,
		PartySize: 3,
		MeanGap:   10 * time.Minute,
		TypoRate:  0.12,
		Until:     SimStart.Add(horizon),
	}, env.App, env.Sched, env.RNG.Derive("manual"),
		env.Proxies.NewSession("TH", proxy.RotatePerRequest))
	manual.Start()

	if err := env.Run(horizon); err != nil {
		return CaseBResult{}, err
	}

	records := env.Bookings.Journal()
	findings := detect.NewNamePatternDetector(detect.NamePatternConfig{}).Analyze(records)
	suspects := detect.SuspectActors(records, findings)

	res := CaseBResult{Findings: findings}
	autoPatterns := map[string]bool{}
	manualPatterns := map[string]bool{}
	// Attribute findings to attackers by checking which actor keys carry
	// each flagged name.
	for _, f := range findings {
		for _, r := range records {
			if r.Outcome != booking.OutcomeAccepted {
				continue
			}
			hasName := false
			for _, p := range r.Passengers {
				if p.Key() == f.Key {
					hasName = true
					break
				}
			}
			if !hasName {
				continue
			}
			switch {
			case strings.HasPrefix(r.ActorID, "autob-1"):
				autoPatterns[f.Pattern.String()] = true
			case strings.HasPrefix(r.ActorID, "manc-1"):
				manualPatterns[f.Pattern.String()] = true
			}
		}
	}
	for p := range autoPatterns {
		res.AutoPatterns = append(res.AutoPatterns, p)
	}
	for p := range manualPatterns {
		res.ManualPatterns = append(res.ManualPatterns, p)
	}
	sort.Strings(res.AutoPatterns)
	sort.Strings(res.ManualPatterns)
	for _, key := range suspects {
		switch {
		case strings.HasPrefix(key, "autob-1"):
			res.AutoFlagged = true
		case strings.HasPrefix(key, "manc-1"):
			res.ManualFlagged = true
		default:
			res.HumanKeysFlagged++
		}
	}

	// Classical volume rules and the navigation-graph heuristic over the
	// web log.
	sessions := weblog.Sessionize(env.App.Log().Requests(), weblog.DefaultSessionGap)
	rules := detect.DefaultVolumeRules()
	graph := detect.DefaultGraphRules()
	var autoTotal, autoHit, manTotal, manHit int
	var autoGraphHit, manGraphHit int
	for _, s := range sessions {
		v := rules.Judge(weblog.Extract(s))
		gv := graph.JudgeSession(s)
		switch s.Actor() {
		case weblog.ActorSeatSpinner:
			autoTotal++
			if v.Flagged {
				autoHit++
			}
			if gv.Flagged {
				autoGraphHit++
			}
		case weblog.ActorManualSpinner:
			manTotal++
			if v.Flagged {
				manHit++
			}
			if gv.Flagged {
				manGraphHit++
			}
		}
	}
	if autoTotal > 0 {
		res.VolumeRulesAutoRecall = float64(autoHit) / float64(autoTotal)
		res.GraphAutoRecall = float64(autoGraphHit) / float64(autoTotal)
	}
	if manTotal > 0 {
		res.VolumeRulesManualRecall = float64(manHit) / float64(manTotal)
		res.GraphManualRecall = float64(manGraphHit) / float64(manTotal)
	}
	return res, nil
}
