package detect

import (
	"funabuse/internal/weblog"
)

// VolumeRules is the classical behaviour-based detector built on
// session-volume features: total request counts, request rate, exploratory
// breadth and trap files. It reliably catches scrapers and is — by
// construction, as the paper argues — blind to low-volume functional abuse.
type VolumeRules struct {
	// MaxRequests flags sessions with more requests than a human plausibly
	// issues.
	MaxRequests int
	// MaxReqPerMinute flags sustained super-human request rates.
	MaxReqPerMinute float64
	// MaxUniquePaths flags exhaustive crawling breadth.
	MaxUniquePaths int
	// MaxSearchShare flags sessions hammering the search/listing pages.
	MaxSearchShare float64
	// TrapFiles flags any access to honeytoken URLs.
	TrapFiles bool
	// MinGapStd flags robotically regular timing: sessions with many
	// requests whose inter-arrival standard deviation is under this bound
	// (seconds).
	MinGapStd float64
}

// DefaultVolumeRules returns thresholds representative of the web-log
// bot-detection literature the paper cites.
func DefaultVolumeRules() VolumeRules {
	return VolumeRules{
		MaxRequests:     120,
		MaxReqPerMinute: 40,
		MaxUniquePaths:  80,
		MaxSearchShare:  0.90,
		TrapFiles:       true,
		MinGapStd:       0.05,
	}
}

// Judge evaluates one session's features.
func (v VolumeRules) Judge(f weblog.Features) Verdict {
	switch {
	case v.TrapFiles && f.TrapHit:
		return Verdict{Flagged: true, Score: 1, Reason: "trap-file"}
	case v.MaxRequests > 0 && f.RequestCount > v.MaxRequests:
		return Verdict{Flagged: true, Score: 0.9, Reason: "request-count"}
	case v.MaxReqPerMinute > 0 && f.ReqPerMinute > v.MaxReqPerMinute && f.RequestCount >= 10:
		return Verdict{Flagged: true, Score: 0.8, Reason: "request-rate"}
	case v.MaxUniquePaths > 0 && f.UniquePaths > v.MaxUniquePaths:
		return Verdict{Flagged: true, Score: 0.7, Reason: "crawl-breadth"}
	case v.MaxSearchShare > 0 && f.SearchShare > v.MaxSearchShare && f.RequestCount >= 20:
		return Verdict{Flagged: true, Score: 0.6, Reason: "search-hammering"}
	case v.MinGapStd > 0 && f.RequestCount >= 20 && f.MeanGapSec > 0 && f.StdGapSec < v.MinGapStd:
		return Verdict{Flagged: true, Score: 0.6, Reason: "robotic-timing"}
	default:
		return Verdict{}
	}
}
