// Package core assembles the paper's "future of industrial fraud
// prevention": a defended application front-end wiring every substrate
// behind a configurable mitigation pipeline, an adaptive defender that
// watches the journals the way the Amadeus team did, and the scenario
// harness that regenerates each figure, table and case-study statistic.
package core

import (
	"strconv"
	"sync/atomic"
	"time"

	"funabuse/internal/app"
	"funabuse/internal/booking"
	"funabuse/internal/fingerprint"
	"funabuse/internal/geo"
	"funabuse/internal/mitigate"
	"funabuse/internal/proxy"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
	"funabuse/internal/sms"
	"funabuse/internal/weblog"
)

// DefenceConfig selects which mitigation layers the application runs.
// The zero value is the undefended posture of the early case studies.
type DefenceConfig struct {
	// Blocklists enables the defender-fed fingerprint/IP/client blocklists;
	// a block rule is permanent.
	Blocklists bool
	// CaptchaOnSMS challenges SMS-feature requests.
	CaptchaOnSMS bool
	// CaptchaSolveCostUSD is the attacker's per-solve price.
	CaptchaSolveCostUSD float64

	// SMSPathLimit caps total SMS-feature requests per window across all
	// clients (the blunt path-level rule that caught the Airline D attack).
	// 0 disables.
	SMSPathLimit  int
	SMSPathWindow time.Duration
	// SMSPerLocatorLimit caps boarding-pass sends per record locator per
	// window — the control whose absence enabled the attack. 0 disables.
	SMSPerLocatorLimit  int
	SMSPerLocatorWindow time.Duration
	// SMSPerProfileLimit caps SMS requests per client profile per window.
	SMSPerProfileLimit  int
	SMSPerProfileWindow time.Duration

	// Honeypot routes flagged clients to decoy inventory.
	Honeypot bool
}

// Application is the defended airline front-end. It implements
// app.ReservationAPI, app.SMSAPI and app.BrowseAPI.
type Application struct {
	clock simclock.Clock
	cfg   DefenceConfig

	bookings *booking.System
	honeypot *mitigate.Honeypot
	boarding *sms.BoardingPassService
	otp      *sms.OTPService

	log     *weblog.Log
	blocks  *mitigate.BlockList
	captcha *mitigate.CaptchaGate

	pathLimiter    *mitigate.KeyedLimiter
	locatorLimiter *mitigate.KeyedLimiter
	profileLimiter *mitigate.KeyedLimiter

	audit []HoldAudit
	// fpSeen retains every distinct fingerprint presented, keyed by hash,
	// for offline analysis (the weblog stores hashes only).
	fpSeen map[uint64]fingerprint.Fingerprint
	// keyScratch is reused to assemble blocklist keys in screen.
	keyScratch []byte

	stats statCounters
}

var (
	_ app.ReservationAPI = (*Application)(nil)
	_ app.SMSAPI         = (*Application)(nil)
	_ app.BrowseAPI      = (*Application)(nil)
)

// HoldAudit links a reservation attempt to its network context — the
// correlation the Airline A defenders used to build fingerprint rules.
type HoldAudit struct {
	Time      time.Time
	ClientKey string
	FPHash    uint64
	IP        proxy.IP
	Accepted  bool
}

// Stats counts pipeline outcomes.
type Stats struct {
	Requests     int
	Blocked      int
	Challenged   int
	ChallengeRej int
	RateLimited  int
	Served       int
}

// statCounters is the live representation behind Stats: atomics, so a
// telemetry scrape from another goroutine (fraudsim -serve) can read a
// running simulation without racing the scheduler thread.
type statCounters struct {
	requests     atomic.Int64
	blocked      atomic.Int64
	challenged   atomic.Int64
	challengeRej atomic.Int64
	rateLimited  atomic.Int64
	served       atomic.Int64
}

// snapshot reads the counters into the exported Stats shape.
func (s *statCounters) snapshot() Stats {
	return Stats{
		Requests:     int(s.requests.Load()),
		Blocked:      int(s.blocked.Load()),
		Challenged:   int(s.challenged.Load()),
		ChallengeRej: int(s.challengeRej.Load()),
		RateLimited:  int(s.rateLimited.Load()),
		Served:       int(s.served.Load()),
	}
}

// NewApplication wires the substrates behind the defence pipeline.
// decoy may be nil when cfg.Honeypot is false.
func NewApplication(
	clock simclock.Clock,
	rng *simrand.RNG,
	cfg DefenceConfig,
	bookings *booking.System,
	decoy *booking.System,
	gateway *sms.Gateway,
) *Application {
	a := &Application{
		clock:    clock,
		cfg:      cfg,
		bookings: bookings,
		boarding: sms.NewBoardingPassService(gateway, bookings),
		otp:      sms.NewOTPService(gateway),
		log:      weblog.NewLog(),
		blocks:   mitigate.NewBlockList(0),
		captcha:  newCaptcha(rng, cfg),
		fpSeen:   make(map[uint64]fingerprint.Fingerprint),
	}
	if cfg.SMSPathLimit > 0 {
		a.pathLimiter = mitigate.NewKeyedLimiter(cfg.SMSPathWindow, cfg.SMSPathLimit)
	}
	if cfg.SMSPerLocatorLimit > 0 {
		a.locatorLimiter = mitigate.NewKeyedLimiter(cfg.SMSPerLocatorWindow, cfg.SMSPerLocatorLimit)
	}
	if cfg.SMSPerProfileLimit > 0 {
		a.profileLimiter = mitigate.NewKeyedLimiter(cfg.SMSPerProfileWindow, cfg.SMSPerProfileLimit)
	}
	if cfg.Honeypot && decoy != nil {
		a.honeypot = mitigate.NewHoneypot(bookings, decoy)
	}
	return a
}

func newCaptcha(rng *simrand.RNG, cfg DefenceConfig) *mitigate.CaptchaGate {
	opts := []mitigate.CaptchaOption{}
	if cfg.CaptchaSolveCostUSD > 0 {
		opts = append(opts, mitigate.WithSolveCost(cfg.CaptchaSolveCostUSD))
	}
	return mitigate.NewCaptchaGate(rng.Derive("captcha"), opts...)
}

// Log returns the application's web log.
func (a *Application) Log() *weblog.Log { return a.log }

// Bookings returns the protected reservation system.
func (a *Application) Bookings() *booking.System { return a.bookings }

// Blocks returns the IP/client blocklist.
func (a *Application) Blocks() *mitigate.BlockList { return a.blocks }

// Captcha returns the challenge gate.
func (a *Application) Captcha() *mitigate.CaptchaGate { return a.captcha }

// Honeypot returns the decoy router (nil when disabled).
func (a *Application) Honeypot() *mitigate.Honeypot { return a.honeypot }

// Stats returns a snapshot of the pipeline counters. Safe to call from
// any goroutine while the simulation runs.
func (a *Application) Stats() Stats { return a.stats.snapshot() }

// AuditSince returns audit entries at or after cutoff.
func (a *Application) AuditSince(cutoff time.Time) []HoldAudit {
	var out []HoldAudit
	for _, h := range a.audit {
		if !h.Time.Before(cutoff) {
			out = append(out, h)
		}
	}
	return out
}

// FingerprintByHash resolves a weblog fingerprint hash to the full
// attribute vector, if the application ever saw it.
func (a *Application) FingerprintByHash(h uint64) (fingerprint.Fingerprint, bool) {
	f, ok := a.fpSeen[h]
	return f, ok
}

// record appends a weblog line for the request. fp is the request's
// fingerprint digest: every API entry point hashes once, in screen, and
// threads the value through the layers instead of re-hashing per use.
func (a *Application) record(ctx app.ClientContext, fp uint64, method, path string, status int) {
	if _, ok := a.fpSeen[fp]; !ok {
		a.fpSeen[fp] = ctx.Fingerprint
	}
	a.log.Append(weblog.Request{
		Time:        a.clock.Now(),
		IP:          ctx.IP,
		Fingerprint: fp,
		Cookie:      ctx.Cookie,
		Method:      method,
		Path:        path,
		Status:      status,
		Actor:       ctx.Actor,
		ActorID:     ctx.ActorID,
	})
}

// screen runs the layer common to every surface: the blocklists, whose
// fp:<hex> keys are the defender's fingerprint-hash rules. It returns the request's fingerprint digest for the
// later layers, and a non-nil error when the request must be rejected.
func (a *Application) screen(ctx app.ClientContext, method, path string) (fp uint64, err error) {
	a.stats.requests.Add(1)
	now := a.clock.Now()
	fp = ctx.Fingerprint.Hash()
	if a.cfg.Blocklists {
		// Candidate keys are assembled in a reused scratch buffer and
		// probed with BlockedBytes, so screening a clean request costs no
		// allocations. Application serves one scenario goroutine, so the
		// scratch field needs no synchronisation. Stats counters are
		// atomic only so a -serve telemetry scrape can read them live.
		buf := append(a.keyScratch[:0], "fp:"...)
		buf = strconv.AppendUint(buf, fp, 16)
		blocked := a.blocks.BlockedBytes(buf, now)
		if !blocked {
			buf = append(buf[:0], "ip:"...)
			buf = append(buf, ctx.IP...)
			blocked = a.blocks.BlockedBytes(buf, now)
		}
		if !blocked {
			buf = append(buf[:0], "ck:"...)
			buf = append(buf, ctx.ClientKey...)
			blocked = a.blocks.BlockedBytes(buf, now)
		}
		a.keyScratch = buf
		if blocked {
			a.stats.blocked.Add(1)
			a.record(ctx, fp, method, path, 403)
			return fp, app.ErrBlocked
		}
	}
	return fp, nil
}

// challenge runs the CAPTCHA gate when enabled for the surface. The ground
// truth actor label selects the *solving capability* model (humans solve in
// the browser; bots buy solves) — it is simulation mechanics, not a
// detection signal.
func (a *Application) challenge(ctx app.ClientContext, fp uint64, enabled bool, method, path string) error {
	if !enabled {
		return nil
	}
	a.stats.challenged.Add(1)
	var pass bool
	if ctx.Actor.Automated() {
		pass = a.captcha.ChallengeBot()
	} else {
		pass = a.captcha.ChallengeHuman()
	}
	if !pass {
		a.stats.challengeRej.Add(1)
		a.record(ctx, fp, method, path, 403)
		return app.ErrChallengeFailed
	}
	return nil
}

// RequestHold implements app.ReservationAPI.
func (a *Application) RequestHold(ctx app.ClientContext, req booking.HoldRequest) (*booking.Hold, error) {
	const path = "/booking/hold"
	fp, err := a.screen(ctx, "POST", path)
	if err != nil {
		return nil, err
	}
	var hold *booking.Hold
	if a.honeypot != nil {
		hold, err = a.honeypot.RequestHold(ctx.ClientKey, req)
	} else {
		hold, err = a.bookings.RequestHold(req)
	}
	status := 200
	if err != nil {
		status = 409
	}
	a.record(ctx, fp, "POST", path, status)
	a.audit = append(a.audit, HoldAudit{
		Time:      a.clock.Now(),
		ClientKey: ctx.ClientKey,
		FPHash:    fp,
		IP:        ctx.IP,
		Accepted:  err == nil,
	})
	if err != nil {
		return nil, err
	}
	a.stats.served.Add(1)
	return hold, nil
}

// Confirm implements app.ReservationAPI.
func (a *Application) Confirm(ctx app.ClientContext, id booking.HoldID) (booking.Ticket, error) {
	const path = "/booking/confirm"
	fp, err := a.screen(ctx, "POST", path)
	if err != nil {
		return booking.Ticket{}, err
	}
	// Redirected clients confirm against the decoy so the deception holds.
	if a.honeypot != nil && a.honeypot.IsRedirected(ctx.ClientKey) {
		t, err := a.honeypot.Decoy().Confirm(id)
		a.record(ctx, fp, "POST", path, statusOf(err))
		return t, err
	}
	t, err := a.bookings.Confirm(id)
	a.record(ctx, fp, "POST", path, statusOf(err))
	if err == nil {
		a.stats.served.Add(1)
	}
	return t, err
}

// smsGates runs the SMS-surface defence layers shared by OTP and boarding
// pass: challenge, then the rate-limit family.
func (a *Application) smsGates(ctx app.ClientContext, fp uint64, path, locator string) error {
	now := a.clock.Now()
	if err := a.challenge(ctx, fp, a.cfg.CaptchaOnSMS, "POST", path); err != nil {
		return err
	}
	if a.profileLimiter != nil && !a.profileLimiter.Allow("pf:"+ctx.ClientKey, now) {
		a.stats.rateLimited.Add(1)
		a.record(ctx, fp, "POST", path, 429)
		return app.ErrRateLimited
	}
	if locator != "" && a.locatorLimiter != nil && !a.locatorLimiter.Allow("loc:"+locator, now) {
		a.stats.rateLimited.Add(1)
		a.record(ctx, fp, "POST", path, 429)
		return app.ErrRateLimited
	}
	if a.pathLimiter != nil && !a.pathLimiter.Allow("path:"+path, now) {
		a.stats.rateLimited.Add(1)
		a.record(ctx, fp, "POST", path, 429)
		return app.ErrRateLimited
	}
	return nil
}

// RequestOTP implements app.SMSAPI.
func (a *Application) RequestOTP(ctx app.ClientContext, to geo.MSISDN, login string) error {
	const path = "/auth/otp"
	fp, err := a.screen(ctx, "POST", path)
	if err != nil {
		return err
	}
	if err := a.smsGates(ctx, fp, path, ""); err != nil {
		return err
	}
	_, err = a.otp.Request(to, login, ctx.ActorID)
	a.record(ctx, fp, "POST", path, statusOf(err))
	if err == nil {
		a.stats.served.Add(1)
	}
	return err
}

// SendBoardingPass implements app.SMSAPI.
func (a *Application) SendBoardingPass(ctx app.ClientContext, locator string, to geo.MSISDN) error {
	const path = "/checkin/boardingpass/sms"
	fp, err := a.screen(ctx, "POST", path)
	if err != nil {
		return err
	}
	if err := a.smsGates(ctx, fp, path, locator); err != nil {
		return err
	}
	_, err = a.boarding.Send(locator, to, ctx.ActorID)
	a.record(ctx, fp, "POST", path, statusOf(err))
	if err == nil {
		a.stats.served.Add(1)
	}
	return err
}

// Get implements app.BrowseAPI.
func (a *Application) Get(ctx app.ClientContext, path string) (int, error) {
	fp, err := a.screen(ctx, "GET", path)
	if err != nil {
		return 403, err
	}
	a.stats.served.Add(1)
	a.record(ctx, fp, "GET", path, 200)
	return 200, nil
}

func statusOf(err error) int {
	if err != nil {
		return 409
	}
	return 200
}
