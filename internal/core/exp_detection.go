package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"funabuse/internal/attack"
	"funabuse/internal/detect"
	"funabuse/internal/entitygraph"
	"funabuse/internal/fingerprint"
	"funabuse/internal/metrics"
	"funabuse/internal/proxy"
	"funabuse/internal/runner"
	"funabuse/internal/weblog"
	"funabuse/internal/workload"
)

// DetectorScore is one detector's per-class performance.
type DetectorScore struct {
	Detector string
	// Recall per actor class (sessions flagged / sessions of that class).
	// The spinner class is split by evasion level: a naive headless bot
	// versus one spoofing organic fingerprints.
	ScraperRecall        float64
	NaiveSpinnerRecall   float64
	SpoofedSpinnerRecall float64
	PumperRecall         float64
	// HumanFPR is the share of human sessions falsely flagged.
	HumanFPR float64
}

// DetectionResult reproduces the paper's Section III argument with numbers:
// behaviour-based detection (volume rules and classifiers trained on
// scraper-vs-human data) catches scrapers and misses low-volume functional
// abuse; knowledge-based fingerprint checks catch naive automation and decay
// against spoofed rotation.
type DetectionResult struct {
	Scores []DetectorScore
	// Sessions per class, for context.
	HumanSessions, ScraperSessions, SpinnerSessions, PumperSessions int
}

// sessionClass buckets a session for scoring.
type sessionClass int

const (
	classHuman sessionClass = iota
	classScraper
	classNaiveSpinner
	classSpoofedSpinner
	classPumper
	classOther
)

// Table renders the comparison.
func (r DetectionResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Detection comparison — recall per attack class (and human false-positive rate)",
		"Detector", "Scraper", "Naive spinner", "Spoofed spinner", "SMS pumper", "Human FPR")
	for _, s := range r.Scores {
		t.AddRow(s.Detector,
			fmt.Sprintf("%.2f", s.ScraperRecall),
			fmt.Sprintf("%.2f", s.NaiveSpinnerRecall),
			fmt.Sprintf("%.2f", s.SpoofedSpinnerRecall),
			fmt.Sprintf("%.2f", s.PumperRecall),
			fmt.Sprintf("%.3f", s.HumanFPR))
	}
	return t
}

// report writes the table and its note lines.
func (r DetectionResult) report(w io.Writer, csv bool) {
	emit(w, r.Table(), csv)
	fmt.Fprintf(w, "sessions: human=%d scraper=%d spinner=%d pumper=%d\n",
		r.HumanSessions, r.ScraperSessions, r.SpinnerSessions, r.PumperSessions)
}

// sample flattens the headline scalars for a replicate sweep.
func (r DetectionResult) sample() runner.Sample {
	var b sample
	b.addInt("human_sessions", r.HumanSessions)
	b.addInt("scraper_sessions", r.ScraperSessions)
	b.addInt("spinner_sessions", r.SpinnerSessions)
	b.addInt("pumper_sessions", r.PumperSessions)
	for _, s := range r.Scores {
		b.add(s.Detector+"/scraper_recall", s.ScraperRecall)
		b.add(s.Detector+"/naive_spinner_recall", s.NaiveSpinnerRecall)
		b.add(s.Detector+"/spoofed_spinner_recall", s.SpoofedSpinnerRecall)
		b.add(s.Detector+"/pumper_recall", s.PumperRecall)
		b.add(s.Detector+"/human_fpr", s.HumanFPR)
	}
	return b.s
}

// RunDetectionComparison builds three days of mixed traffic with all four
// actor classes under an observe-only application, then evaluates each
// detector family offline on the same session set.
func RunDetectionComparison(seed uint64) (DetectionResult, error) {
	const horizon = 3 * 24 * time.Hour
	envCfg := DefaultEnvConfig(seed)
	envCfg.TargetDep = SimStart.Add(10 * 24 * time.Hour)
	env := NewEnv(envCfg)

	flights := append(env.FleetIDs(envCfg), envCfg.TargetID)
	wl := workload.DefaultConfig(flights, SimStart.Add(horizon))
	wl.HoldsPerHour = 40
	wl.OTPPerHour = 20
	pop := workload.NewPopulation(wl, env.App, env.App, env.App, env.Sched, env.RNG.Derive("pop"), env.Registry)
	pop.Start()

	// Scraper: the high-volume baseline. Keeps one exit and a naive
	// headless print, crawls fast and wide, eventually hits the trap.
	scraper := attack.NewScraper(attack.ScraperConfig{
		ID:       "scrape-1",
		Interval: 3 * time.Second,
		Requests: 20000,
	}, env.App, env.Sched, env.RNG.Derive("scraper"),
		env.Proxies.NewSession("US", proxy.RotatePerSession))
	scraper.Start()

	// Two seat spinners at the paper's two sophistication levels: a naive
	// headless bot (vanilla instrumentation artifacts, cheap attribute
	// perturbation) and a spoofing one mimicking organic prints. Both are
	// low volume with per-request exits.
	mkSpinner := func(id string, rot *fingerprint.Rotator) *attack.SeatSpinner {
		return attack.NewSeatSpinner(attack.SeatSpinnerConfig{
			ID:             id,
			Flight:         envCfg.TargetID,
			TargetNiP:      2,
			ReholdInterval: envCfg.Booking.HoldTTL,
			Departure:      envCfg.TargetDep,
			Parallel:       6,
		}, env.App, env.Sched, env.RNG.Derive(id), rot,
			env.Proxies.NewSession("SG", proxy.RotatePerRequest))
	}
	naiveRot := fingerprint.NewRotator(
		env.RNG.Derive("naiverot"),
		fingerprint.NewGenerator(env.RNG.Derive("naivefp")),
	)
	spoofRot := fingerprint.NewRotator(
		env.RNG.Derive("spoofrot"),
		fingerprint.NewGenerator(env.RNG.Derive("spooffp")),
		fingerprint.WithSpoofing(),
	)
	mkSpinner("spin-naive", naiveRot).Start()
	mkSpinner("spin-spoof", spoofRot).Start()

	// Pumper: slow per-destination sends through country-matched exits.
	pumpRot := fingerprint.NewRotator(
		env.RNG.Derive("pumprot"),
		fingerprint.NewGenerator(env.RNG.Derive("pumpfp")),
		fingerprint.WithSpoofing(),
	)
	pumper := attack.NewSMSPumper(attack.SMSPumperConfig{
		ID:           "pump-1",
		Flight:       envCfg.TargetID,
		Tickets:      3,
		SendInterval: 4 * time.Minute,
		Until:        SimStart.Add(horizon),
	}, env.App, env.App, env.Sched, env.RNG.Derive("pumper"), env.Proxies, pumpRot, env.Registry)
	pumper.Start()

	if err := env.Run(horizon); err != nil {
		return DetectionResult{}, err
	}

	sessions := weblog.Sessionize(env.App.Log().Requests(), weblog.DefaultSessionGap)
	var res DetectionResult

	classOf := func(s *weblog.Session) sessionClass {
		switch s.Actor() {
		case weblog.ActorHuman:
			return classHuman
		case weblog.ActorScraper:
			return classScraper
		case weblog.ActorSeatSpinner:
			if len(s.Requests) > 0 && strings.HasPrefix(s.Requests[0].ActorID, "spin-naive") {
				return classNaiveSpinner
			}
			return classSpoofedSpinner
		case weblog.ActorSMSPumper:
			return classPumper
		default:
			return classOther
		}
	}
	for _, s := range sessions {
		switch classOf(s) {
		case classHuman:
			res.HumanSessions++
		case classScraper:
			res.ScraperSessions++
		case classNaiveSpinner, classSpoofedSpinner:
			res.SpinnerSessions++
		case classPumper:
			res.PumperSessions++
		}
	}

	// The detector families all sit behind the unified detect.Arm contract
	// now; the experiment builds a registry in report order, feeds the
	// traffic to the stateful arms once, then scores every arm with the
	// same loop. Adding a detector family is one MustRegister call.
	registry := detect.NewRegistry()

	// 1. Classical volume rules.
	volume := detect.VolumeArm{Rules: detect.DefaultVolumeRules()}
	registry.MustRegister(volume)

	// 2. Supervised classifiers trained the way the literature trains them:
	// on human-vs-scraper session labels (the labelled data an operator
	// actually has), then applied to every class. The interesting number is
	// the transfer failure on the low-volume abuse classes.
	var trainSet []detect.Sample
	for _, s := range sessions {
		cls := classOf(s)
		if cls != classHuman && cls != classScraper {
			continue
		}
		y := 0.0
		if cls == classScraper {
			y = 1
		}
		trainSet = append(trainSet, detect.Sample{X: weblog.Extract(s).Vector(), Y: y})
	}
	if lr, err := detect.TrainLogReg(env.RNG.Derive("lr"), trainSet, detect.DefaultLogRegConfig()); err == nil {
		registry.MustRegister(detect.ClassifierArm{ArmName: "logistic regression", Model: lr})
	}
	if nb, err := detect.TrainNaiveBayes(trainSet); err == nil {
		registry.MustRegister(detect.ClassifierArm{ArmName: "naive bayes", Model: nb})
	}

	// 3. Knowledge-based static fingerprint checks: cross-attribute
	// consistency.
	fpArm := detect.FingerprintArm{Lookup: env.App.FingerprintByHash}
	registry.MustRegister(fpArm)

	// 4. Combined: volume OR fingerprint.
	registry.MustRegister(detect.AnyArm{
		ArmName: "volume + fingerprint",
		Members: []detect.Arm{volume, fpArm},
	})

	// 5. Streaming signals: the online monitor consumes the same traffic
	// one request at a time and flags identities by in-window rate
	// (catches the scraper) or distinct-exit cardinality (catches the
	// rotating spinners and the pumper, which sessionization shatters into
	// single-request sessions the offline detectors cannot see). A session
	// is judged by whether any of its identities was ever flagged.
	monitor := detect.NewStreamMonitor(detect.StreamConfig{
		RateThreshold: 120,
	})
	registry.MustRegister(detect.StreamArm{Monitor: monitor})

	// 6. The entity-linkage graph: sessions carrying weak evidence wire
	// their fingerprints and exits into components, and a session is
	// flagged when its entities sit in a component whose size, entity
	// diversity and accumulated weak score cross the thresholds. This is
	// the structural detector: each rotated exit contributes one near-zero
	// signal, and the shared fingerprint hub adds them up.
	graph := entitygraph.New(entitygraph.Config{
		MinSize:   8,
		MinTypes:  2,
		FlagScore: 4,
	})
	registry.MustRegister(detect.NewEntityGraphArm(graph))

	// 7. Account history: every identified request ages and accrues on a
	// lifecycle account, and a session is flagged when its account's
	// request volume outruns its age — the paper's Section V observation
	// that history is the signal an attacker cannot cheaply fake, read as
	// a detector rather than a tier gate.
	registry.MustRegister(detect.NewAccountArm(nil, detect.DefaultAccountArmConfig()))

	registry.Observe(env.App.Log().Requests(), sessions)

	for _, arm := range registry.Arms() {
		var score DetectorScore
		score.Detector = arm.Name()
		var hit, total [classOther + 1]int
		for _, s := range sessions {
			cls := classOf(s)
			total[cls]++
			if arm.Judge(s).Flagged {
				hit[cls]++
			}
		}
		ratio := func(c sessionClass) float64 {
			if total[c] == 0 {
				return 0
			}
			return float64(hit[c]) / float64(total[c])
		}
		score.HumanFPR = ratio(classHuman)
		score.ScraperRecall = ratio(classScraper)
		score.NaiveSpinnerRecall = ratio(classNaiveSpinner)
		score.SpoofedSpinnerRecall = ratio(classSpoofedSpinner)
		score.PumperRecall = ratio(classPumper)
		res.Scores = append(res.Scores, score)
	}

	return res, nil
}
