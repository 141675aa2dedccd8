package core

import (
	"sort"
	"strconv"
	"time"

	"funabuse/internal/booking"
	"funabuse/internal/detect"
	"funabuse/internal/simclock"
)

// DefenderConfig tunes the adaptive countermeasure loop.
type DefenderConfig struct {
	// NiPCapOnDrift applies this party-size cap when NiP drift is
	// anomalous (0 = never cap). The paper's team capped at 4.
	NiPCapOnDrift int
	// RedirectToHoneypot routes flagged clients to the decoy instead of
	// blocking them.
	RedirectToHoneypot bool
}

// DefaultDefenderConfig mirrors the paper's operational posture.
func DefaultDefenderConfig() DefenderConfig {
	return DefenderConfig{NiPCapOnDrift: 4}
}

const (
	// reviewTick is how often the defender reviews the journals.
	reviewTick = time.Hour
	// reviewWindow is how far back each review looks.
	reviewWindow = 6 * time.Hour
	// holdThreshold is the accepted-hold count per client key within the
	// review window at which the client is treated as a spinner. A
	// legitimate customer holds a seat once, maybe twice.
	holdThreshold = 4
)

// Defender is the adaptive security team: it periodically reviews the
// reservation journal and hold audit, detects drift and abusive clients,
// and installs countermeasures through the application.
type Defender struct {
	cfg         DefenderConfig
	application *Application
	sched       *simclock.Scheduler
	drift       *detect.NiPDrift
	names       *detect.NamePatternDetector

	capApplied   bool
	capAppliedAt time.Time
	rulesAdded   int
	redirects    int
}

// NewDefender builds a defender reviewing the given application. baseline
// seeds the NiP drift detector with an average-week journal; pass nil to
// have the defender learn the baseline from the first review window.
func NewDefender(
	cfg DefenderConfig,
	application *Application,
	sched *simclock.Scheduler,
	baseline []booking.Record,
) *Defender {
	d := &Defender{
		cfg:         cfg,
		application: application,
		sched:       sched,
		names:       detect.NewNamePatternDetector(detect.NamePatternConfig{}),
	}
	if len(baseline) > 0 {
		d.drift = detect.NewNiPDrift(baseline, 9)
	}
	return d
}

// Start schedules the periodic review.
func (d *Defender) Start() {
	d.sched.ScheduleEvery(reviewTick, d.review)
}

// RulesAdded returns how many block rules the defender installed.
func (d *Defender) RulesAdded() int { return d.rulesAdded }

// Redirects returns how many clients were routed to the honeypot.
func (d *Defender) Redirects() int { return d.redirects }

// CapApplied reports whether and when the NiP cap mitigation fired.
func (d *Defender) CapApplied() (time.Time, bool) { return d.capAppliedAt, d.capApplied }

// review is one defender pass over the recent journals.
func (d *Defender) review(now time.Time) {
	from := now.Add(-reviewWindow)
	records := d.application.Bookings().JournalBetween(from, now)
	if d.drift == nil {
		// Learn the baseline from the first window and start enforcing on
		// the next tick.
		if len(records) > 0 {
			d.drift = detect.NewNiPDrift(records, 9)
		}
		return
	}

	// 1. Distribution-level anomaly: NiP drift triggers the cap.
	rep := d.drift.Compare(records)
	if rep.Anomalous() && d.cfg.NiPCapOnDrift > 0 && !d.capApplied {
		d.application.Bookings().SetMaxNiP(d.cfg.NiPCapOnDrift)
		d.capApplied = true
		d.capAppliedAt = now
	}

	// 2. Client-level: keys holding seats far faster than any customer.
	suspects := d.suspectKeys(from, now)

	// 3. Passenger-detail patterns (case B) widen the suspect set.
	for _, key := range detect.SuspectActors(records, d.names.Analyze(records)) {
		suspects[key] = true
	}

	d.act(suspects, from, now)
}

// suspectKeys returns client keys whose accepted-hold velocity in the
// window exceeds the threshold.
func (d *Defender) suspectKeys(from, to time.Time) map[string]bool {
	counts := make(map[string]int)
	for _, h := range d.application.AuditSince(from) {
		if h.Time.Before(to) && h.Accepted {
			counts[h.ClientKey]++
		}
	}
	out := make(map[string]bool)
	for key, n := range counts {
		if n >= holdThreshold {
			out[key] = true
		}
	}
	return out
}

// act installs countermeasures against the suspect client keys, using the
// audit trail to pivot from keys to fingerprints and IPs.
func (d *Defender) act(suspects map[string]bool, from, now time.Time) {
	if len(suspects) == 0 {
		return
	}
	keys := make([]string, 0, len(suspects))
	for k := range suspects {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, key := range keys {
		if d.cfg.RedirectToHoneypot && d.application.Honeypot() != nil {
			if !d.application.Honeypot().IsRedirected(key) {
				d.application.Honeypot().Redirect(key)
				d.redirects++
			}
			continue
		}
		// Pivot: every fingerprint/IP this key presented in the window.
		for _, h := range d.application.AuditSince(from) {
			if h.ClientKey != key || h.Time.After(now) {
				continue
			}
			d.application.Blocks().Block("fp:"+strconv.FormatUint(h.FPHash, 16), now)
			d.application.Blocks().Block("ip:"+string(h.IP), now)
			d.rulesAdded += 2
		}
		// The key itself is burned either way.
		d.application.Blocks().Block("ck:"+key, now)
		d.rulesAdded++
	}
}
