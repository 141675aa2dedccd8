// Package weblog is the web-traffic layer: it records requests as a web
// server log would, assembles them into user sessions by time-gap
// sessionization, and extracts the per-session features classical
// behaviour-based bot detection runs on (volumes, method mix, URL depth,
// inter-arrival statistics, trap-file hits).
//
// The paper's Section III argument is made concrete here: Seat Spinning and
// SMS Pumping sessions are *low volume* and look nothing like scraping
// sessions on these features, which is exactly why the classical detectors
// built on them miss the attacks.
package weblog

import (
	"math"
	"sort"
	"strings"
	"time"

	"funabuse/internal/proxy"
)

// Actor is the ground-truth origin of a request, carried for evaluation
// only; detectors never read it.
type Actor int

// Actor kinds.
const (
	ActorHuman Actor = iota + 1
	ActorScraper
	ActorSeatSpinner
	ActorManualSpinner
	ActorSMSPumper
)

// String names the actor.
func (a Actor) String() string {
	switch a {
	case ActorHuman:
		return "human"
	case ActorScraper:
		return "scraper"
	case ActorSeatSpinner:
		return "seat-spinner"
	case ActorManualSpinner:
		return "manual-spinner"
	case ActorSMSPumper:
		return "sms-pumper"
	default:
		return "unknown"
	}
}

// Automated reports whether the actor is a bot.
func (a Actor) Automated() bool {
	return a == ActorScraper || a == ActorSeatSpinner || a == ActorSMSPumper
}

// Abusive reports whether the actor performs functional abuse (manual or
// automated).
func (a Actor) Abusive() bool { return a != ActorHuman && a != 0 }

// Request is one log line.
type Request struct {
	Time        time.Time
	IP          proxy.IP
	Fingerprint uint64
	// Cookie identifies the logical client session when present; bots that
	// discard cookies leave it empty and are sessionized by (IP, FP).
	Cookie string
	Method string
	Path   string
	Status int
	// Actor is ground truth for evaluation.
	Actor Actor
	// ActorID distinguishes individual actors of the same kind.
	ActorID string
}

// Log is an append-only request log.
type Log struct {
	requests []Request
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Append adds a request.
func (l *Log) Append(r Request) { l.requests = append(l.requests, r) }

// Len returns the number of requests.
func (l *Log) Len() int { return len(l.requests) }

// Requests returns a copy of the log lines.
func (l *Log) Requests() []Request {
	out := make([]Request, len(l.requests))
	copy(out, l.requests)
	return out
}

// Session is a sequence of requests attributed to one client.
type Session struct {
	Key      string
	Requests []Request
}

// Actor returns the session's dominant ground-truth actor.
func (s *Session) Actor() Actor {
	counts := make(map[Actor]int)
	for _, r := range s.Requests {
		counts[r.Actor]++
	}
	var best Actor
	bestN := -1
	for a, n := range counts {
		if n > bestN || (n == bestN && a < best) {
			best, bestN = a, n
		}
	}
	return best
}

// Start returns the first request time.
func (s *Session) Start() time.Time { return s.Requests[0].Time }

// End returns the last request time.
func (s *Session) End() time.Time { return s.Requests[len(s.Requests)-1].Time }

// DefaultSessionGap is the classical 30-minute inactivity threshold used to
// split web sessions.
const DefaultSessionGap = 30 * time.Minute

// Sessionize groups requests into sessions keyed by cookie when present,
// else by (IP, fingerprint), splitting on inactivity gaps larger than gap.
// Requests are processed in time order regardless of log order.
func Sessionize(requests []Request, gap time.Duration) []*Session {
	if gap <= 0 {
		gap = DefaultSessionGap
	}
	sorted := make([]Request, len(requests))
	copy(sorted, requests)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time.Before(sorted[j].Time) })

	open := make(map[string]*Session)
	var done []*Session
	// The session key is built into a reused scratch buffer and probed with
	// open[string(keyBuf)], which the compiler compiles to an allocation-free
	// map lookup; the key string is only materialised when a new session
	// actually opens.
	var keyBuf []byte
	for _, r := range sorted {
		keyBuf = appendClientKey(keyBuf[:0], r)
		s, ok := open[string(keyBuf)]
		if ok && r.Time.Sub(s.End()) > gap {
			done = append(done, s)
			ok = false
		}
		if !ok {
			key := string(keyBuf)
			s = &Session{Key: key}
			open[key] = s
		}
		s.Requests = append(s.Requests, r)
	}
	keys := make([]string, 0, len(open))
	for k := range open {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		done = append(done, k2session(open, k))
	}
	sort.SliceStable(done, func(i, j int) bool {
		if !done[i].Start().Equal(done[j].Start()) {
			return done[i].Start().Before(done[j].Start())
		}
		return done[i].Key < done[j].Key
	})
	return done
}

func k2session(m map[string]*Session, k string) *Session { return m[k] }

// appendClientKey appends r's session key to buf and returns the extended
// slice: "c:"+cookie when a cookie is present, else
// "i:"+IP+"/"+16-hex-digit fingerprint.
func appendClientKey(buf []byte, r Request) []byte {
	if r.Cookie != "" {
		buf = append(buf, 'c', ':')
		return append(buf, r.Cookie...)
	}
	buf = append(buf, 'i', ':')
	buf = append(buf, r.IP...)
	buf = append(buf, '/')
	return appendU64Hex(buf, r.Fingerprint)
}

func appendU64Hex(buf []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return append(buf, b[:]...)
}

// TrapPath is a honeytoken URL linked invisibly from pages; only exhaustive
// crawlers request it.
const TrapPath = "/.trap/listing"

// Features is the classical behaviour-based session feature vector.
type Features struct {
	RequestCount   int
	DurationSec    float64
	GETShare       float64
	POSTShare      float64
	UniquePaths    int
	MaxPathDepth   int
	SearchShare    float64
	ErrorShare     float64
	MeanGapSec     float64
	StdGapSec      float64
	ReqPerMinute   float64
	TrapHit        bool
	NightShare     float64
	DistinctIPs    int
	DistinctPrints int
}

// Vector flattens the features for the numeric classifiers, in a fixed
// order. TrapHit is encoded as 0/1.
func (f Features) Vector() []float64 {
	trap := 0.0
	if f.TrapHit {
		trap = 1
	}
	return []float64{
		float64(f.RequestCount),
		f.DurationSec,
		f.GETShare,
		f.POSTShare,
		float64(f.UniquePaths),
		float64(f.MaxPathDepth),
		f.SearchShare,
		f.ErrorShare,
		f.MeanGapSec,
		f.StdGapSec,
		f.ReqPerMinute,
		trap,
		f.NightShare,
		float64(f.DistinctIPs),
		float64(f.DistinctPrints),
	}
}

// FeatureNames returns the labels matching Vector order.
func FeatureNames() []string {
	return []string{
		"request_count", "duration_sec", "get_share", "post_share",
		"unique_paths", "max_path_depth", "search_share", "error_share",
		"mean_gap_sec", "std_gap_sec", "req_per_minute", "trap_hit",
		"night_share", "distinct_ips", "distinct_prints",
	}
}

// Extract computes the feature vector for a session.
func Extract(s *Session) Features {
	var f Features
	n := len(s.Requests)
	if n == 0 {
		return f
	}
	f.RequestCount = n
	f.DurationSec = s.End().Sub(s.Start()).Seconds()

	paths := make(map[string]bool, n)
	ips := make(map[proxy.IP]bool, 4)
	prints := make(map[uint64]bool, 4)
	var gets, posts, search, errors, night int
	for _, r := range s.Requests {
		switch r.Method {
		case "GET":
			gets++
		case "POST":
			posts++
		}
		paths[r.Path] = true
		ips[r.IP] = true
		prints[r.Fingerprint] = true
		if depth := pathDepth(r.Path); depth > f.MaxPathDepth {
			f.MaxPathDepth = depth
		}
		if strings.HasPrefix(r.Path, "/search") {
			search++
		}
		if r.Status >= 400 {
			errors++
		}
		if r.Path == TrapPath {
			f.TrapHit = true
		}
		if h := r.Time.Hour(); h < 6 {
			night++
		}
	}
	nf := float64(n)
	f.GETShare = float64(gets) / nf
	f.POSTShare = float64(posts) / nf
	f.UniquePaths = len(paths)
	f.SearchShare = float64(search) / nf
	f.ErrorShare = float64(errors) / nf
	f.NightShare = float64(night) / nf
	f.DistinctIPs = len(ips)
	f.DistinctPrints = len(prints)

	if n > 1 {
		gaps := make([]float64, 0, n-1)
		for i := 1; i < n; i++ {
			gaps = append(gaps, s.Requests[i].Time.Sub(s.Requests[i-1].Time).Seconds())
		}
		var sum float64
		for _, g := range gaps {
			sum += g
		}
		f.MeanGapSec = sum / float64(len(gaps))
		var sq float64
		for _, g := range gaps {
			d := g - f.MeanGapSec
			sq += d * d
		}
		f.StdGapSec = math.Sqrt(sq / float64(len(gaps)))
	}
	if f.DurationSec > 0 {
		f.ReqPerMinute = nf / (f.DurationSec / 60)
	} else {
		f.ReqPerMinute = nf * 60 // all requests within one second
	}
	return f
}

func pathDepth(p string) int {
	depth := 0
	for _, seg := range strings.Split(p, "/") {
		if seg != "" {
			depth++
		}
	}
	return depth
}
