package loadgen

import (
	"sync"
	"time"

	"funabuse/internal/account"
	"funabuse/internal/httpgate"
	"funabuse/internal/mitigate"
	"funabuse/internal/simclock"
)

// EconModel prices an abusive class's operation. The paper's Section V
// argument is that functional abuse persists exactly as long as it is
// profitable; these knobs are the attacker's cost sheet, and the E18
// economics experiment measures how each defence arm moves the
// resulting ROI.
type EconModel struct {
	// RegistrationUSD is the cost of standing up one account identity —
	// a phone-verified signup, a warmed cookie jar.
	RegistrationUSD float64
	// RequestUSD is the marginal cost per request: proxy bandwidth and
	// amortised solver fees.
	RequestUSD float64
	// BurnUSD is the write-off when a blocking rule burns an account and
	// the identity behind it.
	BurnUSD float64
	// RevenueUSD is what one admitted request earns the attacker — the
	// resale margin on a held seat, the pumping kickback per message.
	RevenueUSD float64
	// BudgetUSD caps each client's total spend; once reached the client
	// stops issuing. Zero means unconstrained.
	BudgetUSD float64
}

// AccountFeederConfig assembles an AccountFeeder.
type AccountFeederConfig struct {
	// Store receives one observation per identified request.
	Store *account.Store
	// Clock timestamps observations; defaults to the real clock.
	Clock simclock.Clock
	// BookingPaths are the paths an admitted request counts as a booking
	// on — the history the tier thresholds read. Empty counts none.
	BookingPaths []string
}

// AccountFeeder is the lifecycle half of the account defence: a gate
// decision hook that creates accounts on first sight and accrues every
// identified request onto them — admitted booking-path requests as
// bookings, denials as denials — so tiers are earned by live traffic
// rather than assigned. It is driven from the gate's serving goroutines;
// the store synchronises itself.
type AccountFeeder struct {
	decisionSinks
	store *account.Store
	clock simclock.Clock
}

// NewAccountFeeder returns a feeder observing into cfg.Store.
func NewAccountFeeder(cfg AccountFeederConfig) *AccountFeeder {
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	f := &AccountFeeder{store: cfg.Store, clock: clock}
	f.decisionSinks = decisionSinks{{cfg.BookingPaths, false, f.feed}}
	return f
}

// feed is the feeder's decision sink. Anonymous requests carry no account
// identity and are ignored.
func (f *AccountFeeder) feed(onBookingPath bool, _ string, info httpgate.ClientInfo, deniedBy string) {
	if info.ClientKey == "" {
		return
	}
	f.store.Observe(info.ClientKey, f.clock.Now(), deniedBy == "" && onBookingPath, deniedBy != "")
}

// ROILedgerConfig assembles a ROILedger.
type ROILedgerConfig struct {
	// Econ is the cost sheet the ledger prices observations with.
	Econ EconModel
	// Class is the plan class index the ledger tracks.
	Class int
	// Start and Bucket define the timeline: observation i lands in bucket
	// (At-Start)/Bucket. Bucket defaults to 10s.
	Start  time.Time
	Bucket time.Duration
	// Decoys, when non-nil, marks admitted requests against decoy
	// references: the attacker books believed revenue for them, but the
	// actual column stays flat — decoy inventory pays nothing.
	Decoys *mitigate.DecoySet
}

// ROILedger prices one class's run into a deterministic per-bucket
// timeline of spend and revenue. Wire Observe as the runner's Observe
// hook (under virtual pacing observations arrive one at a time in
// schedule order, so the float sums are bit-reproducible), then fold the
// Result in for registration and burn charges, which are keyed to the
// rotation log rather than to any single request.
//
// The ledger keeps two revenue columns. Believed is what the attacker's
// own accounting shows — every admitted request pays out. Actual deducts
// admitted requests that landed on decoy inventory: the attacker cannot
// tell the difference until the goods fail to materialise, which is
// precisely the honeypot's economic mechanism.
type ROILedger struct {
	cfg ROILedgerConfig

	mu       sync.Mutex
	spend    []float64
	believed []float64
	actual   []float64
	skipped  uint64
}

// NewROILedger builds a ledger for cfg.Class.
func NewROILedger(cfg ROILedgerConfig) *ROILedger {
	if cfg.Bucket <= 0 {
		cfg.Bucket = 10 * time.Second
	}
	return &ROILedger{cfg: cfg}
}

// bucketOf grows the timeline to cover at and returns its bucket index.
// Callers hold l.mu.
func (l *ROILedger) bucketOf(at time.Time) int {
	b := int(at.Sub(l.cfg.Start) / l.cfg.Bucket)
	if b < 0 {
		b = 0
	}
	for len(l.spend) <= b {
		l.spend = append(l.spend, 0)
		l.believed = append(l.believed, 0)
		l.actual = append(l.actual, 0)
	}
	return b
}

// Observe prices one completed request. Wire it as RunnerConfig.Observe.
func (l *ROILedger) Observe(o Observation) {
	if o.Arrival.Class != l.cfg.Class {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if o.Verdict == verdictBudgetExhausted {
		l.skipped++
		return
	}
	b := l.bucketOf(o.Arrival.At)
	l.spend[b] += l.cfg.Econ.RequestUSD
	if o.Verdict != "" || o.Status == 0 || o.Status >= 400 {
		return
	}
	l.believed[b] += l.cfg.Econ.RevenueUSD
	if l.cfg.Decoys != nil && o.Arrival.Resource >= 0 &&
		l.cfg.Decoys.IsDecoy(ResourceRef(o.Arrival.Resource)) {
		return
	}
	l.actual[b] += l.cfg.Econ.RevenueUSD
}

// FoldResult charges the run's identity costs onto the timeline: the
// fleet's initial registrations at bucket zero and one burn plus one
// re-registration at each rotation's instant.
func (l *ROILedger) FoldResult(res *Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := res.Classes[l.cfg.Class]
	b := l.bucketOf(l.cfg.Start)
	initial := c.Registrations - c.Burned
	l.spend[b] += float64(initial) * l.cfg.Econ.RegistrationUSD
	for _, rot := range c.Rotations {
		b := l.bucketOf(rot.At)
		l.spend[b] += l.cfg.Econ.BurnUSD + l.cfg.Econ.RegistrationUSD
	}
}

// ROIPoint is one cumulative timeline entry.
type ROIPoint struct {
	// At is the bucket's end instant.
	At time.Time
	// SpendUSD, BelievedUSD and ActualUSD are cumulative through this
	// bucket.
	SpendUSD    float64
	BelievedUSD float64
	ActualUSD   float64
}

// ProfitUSD is the point's cumulative actual profit.
func (p ROIPoint) ProfitUSD() float64 { return p.ActualUSD - p.SpendUSD }

// At returns the cumulative point through instant t: the sum of every
// bucket that has fully ended by t. Reports sample fixed instants with
// it so arms whose timelines end early still line up.
func (l *ROILedger) At(t time.Time) ROIPoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := ROIPoint{At: t}
	for i := range l.spend {
		if l.cfg.Start.Add(time.Duration(i+1) * l.cfg.Bucket).After(t) {
			break
		}
		p.SpendUSD += l.spend[i]
		p.BelievedUSD += l.believed[i]
		p.ActualUSD += l.actual[i]
	}
	return p
}

// Totals returns the run's cumulative spend and revenue columns.
func (l *ROILedger) Totals() (spendUSD, believedUSD, actualUSD float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spend {
		spendUSD += l.spend[i]
		believedUSD += l.believed[i]
		actualUSD += l.actual[i]
	}
	return spendUSD, believedUSD, actualUSD
}

// ProfitUSD is the attacker's actual profit: real revenue minus spend.
func (l *ROILedger) ProfitUSD() float64 {
	spend, _, actual := l.Totals()
	return actual - spend
}

// ROI is actual revenue over spend — the number the attacker's continued
// operation depends on. ok is false when nothing was spent.
func (l *ROILedger) ROI() (roi float64, ok bool) {
	spend, _, actual := l.Totals()
	if spend == 0 {
		return 0, false
	}
	return actual / spend, true
}

// BudgetSkipped counts the tracked class's arrivals dropped because the
// issuing client's budget was spent.
func (l *ROILedger) BudgetSkipped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.skipped
}

// EconomicsScenario is the E18 attacker-economics shape: honest browsing
// (pre-registered loyalty members in the experiment's tiered arms) plus a
// budget-constrained seat-spinning operation that enumerates its own
// disjoint booking-reference range — the surface the honeypot arm seeds
// with decoys — and pays the EconModel's prices as it goes. The attacker
// burst targets the bulk seat-map probe (a member-tier feature under
// tiering) and the hold path; reactive rotation is enabled so decoy-
// triggered blocking rules force burns and re-registrations.
func EconomicsScenario(seed uint64, start time.Time) Scenario {
	return Scenario{
		Seed:  seed,
		Start: start,
		Classes: []Class{
			{
				Name:      "honest",
				Kind:      Honest,
				Clients:   10,
				Paths:     []string{PathSearch, PathHold, PathSeatMap},
				Resources: 20,
				Phases:    []Phase{{Dur: 60 * time.Second, Rate: 3}},
			},
			{
				Name:         "abuser",
				Kind:         SeatSpin,
				Clients:      4,
				Paths:        []string{PathSeatMap, PathHold},
				Resources:    60,
				ResourceBase: 1000,
				ReactionMean: 6 * time.Second,
				Phases: []Phase{
					{Dur: 5 * time.Second, Rate: 0},
					{Dur: 55 * time.Second, Rate: 12},
				},
				Econ: &EconModel{
					RegistrationUSD: 2.0,
					RequestUSD:      0.01,
					BurnUSD:         1.0,
					RevenueUSD:      0.5,
					BudgetUSD:       8.0,
				},
			},
		},
	}
}
