package attack

import (
	"strconv"
	"time"

	"funabuse/internal/app"
	"funabuse/internal/fingerprint"
	"funabuse/internal/proxy"
	"funabuse/internal/simclock"
	"funabuse/internal/simrand"
	"funabuse/internal/weblog"
)

// ScraperConfig parameterises the high-volume crawler baseline. Scrapers
// are the functional abuse traditional detection was built for: hundreds of
// requests per session, exhaustive breadth, robotic cadence — everything
// the low-volume attacks lack.
type ScraperConfig struct {
	ID string
	// Interval is the fixed inter-request delay (robotic cadence).
	Interval time.Duration
	// Requests is the total crawl budget.
	Requests int
}

const (
	// crawlBurst is how many requests the crawler sends before each
	// crawlPause: crawl bursts separated by idle gaps split the web log
	// into many hot sessions.
	crawlBurst = 150
	// crawlPause is the burst gap, longer than the classical 30-minute
	// sessionization threshold.
	crawlPause = 45 * time.Minute
)

// crawlPaths is the URL universe every scraper crawls: a search and
// flight-fare tree. It is only ever read.
var crawlPaths = func() []string {
	paths := make([]string, 0, 120)
	for i := range 60 {
		paths = append(paths, "/search/results/page"+strconv.Itoa(i))
	}
	for i := range 60 {
		paths = append(paths, "/flight/FL"+strconv.Itoa(100+i)+"/fares")
	}
	return paths
}()

// Scraper is the baseline high-volume bot.
type Scraper struct {
	cfg     ScraperConfig
	api     app.BrowseAPI
	sched   *simclock.Scheduler
	rng     *simrand.RNG
	session *proxy.Session
	print   fingerprint.Fingerprint

	sent    int
	denied  int
	stopped bool
}

// NewScraper builds a scraper with a naive headless fingerprint.
func NewScraper(
	cfg ScraperConfig,
	api app.BrowseAPI,
	sched *simclock.Scheduler,
	rng *simrand.RNG,
	session *proxy.Session,
) *Scraper {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Requests < 1 {
		cfg.Requests = 500
	}
	return &Scraper{
		cfg:     cfg,
		api:     api,
		sched:   sched,
		rng:     rng,
		session: session,
		print:   fingerprint.NewGenerator(rng.Derive("fp")).NaiveHeadless(),
	}
}

// Start schedules the crawl.
func (s *Scraper) Start() {
	s.sched.ScheduleAfter(s.cfg.Interval, s.step)
}

func (s *Scraper) step(now time.Time) {
	if s.stopped || s.sent+s.denied >= s.cfg.Requests {
		s.stopped = true
		return
	}
	path := crawlPaths[(s.sent+s.denied)%len(crawlPaths)]
	// Like exhaustive crawlers, it follows invisible links into the trap.
	if (s.sent+s.denied)%97 == 42 {
		path = weblog.TrapPath
	}
	ctx := app.ClientContext{
		IP:          s.session.Addr(),
		Fingerprint: s.print,
		ClientKey:   s.cfg.ID + "-session",
		Actor:       weblog.ActorScraper,
		ActorID:     s.cfg.ID,
	}
	if _, err := s.api.Get(ctx, path); err != nil {
		s.denied++
	} else {
		s.sent++
	}
	next := s.cfg.Interval
	if (s.sent+s.denied)%crawlBurst == 0 {
		next = crawlPause
	}
	s.sched.Schedule(now.Add(next), s.step)
}
