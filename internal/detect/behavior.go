package detect

import (
	"funabuse/internal/weblog"
)

// VolumeRules is the classical behaviour-based detector built on
// session-volume features: total request counts, request rate, exploratory
// breadth and trap files. It reliably catches scrapers and is — by
// construction, as the paper argues — blind to low-volume functional abuse.
// Its thresholds are those of the web-log bot-detection literature the
// paper cites, fixed so the measurement is the literature's.
type VolumeRules struct{}

const (
	// volumeMaxRequests flags sessions with more requests than a human
	// plausibly issues.
	volumeMaxRequests = 120
	// volumeMaxReqPerMinute flags sustained super-human request rates.
	volumeMaxReqPerMinute = 40
	// volumeMaxUniquePaths flags exhaustive crawling breadth.
	volumeMaxUniquePaths = 80
	// volumeMaxSearchShare flags sessions hammering the search/listing
	// pages.
	volumeMaxSearchShare = 0.90
	// volumeMinGapStd flags robotically regular timing: sessions with many
	// requests whose inter-arrival standard deviation is under this bound
	// (seconds).
	volumeMinGapStd = 0.05
)

// Judge evaluates one session's features. Any access to a honeytoken URL
// flags it outright.
func (VolumeRules) Judge(f weblog.Features) Verdict {
	switch {
	case f.TrapHit:
		return Verdict{Flagged: true, Reason: "trap-file"}
	case f.RequestCount > volumeMaxRequests:
		return Verdict{Flagged: true, Reason: "request-count"}
	case f.ReqPerMinute > volumeMaxReqPerMinute && f.RequestCount >= 10:
		return Verdict{Flagged: true, Reason: "request-rate"}
	case f.UniquePaths > volumeMaxUniquePaths:
		return Verdict{Flagged: true, Reason: "crawl-breadth"}
	case f.SearchShare > volumeMaxSearchShare && f.RequestCount >= 20:
		return Verdict{Flagged: true, Reason: "search-hammering"}
	case f.RequestCount >= 20 && f.MeanGapSec > 0 && f.StdGapSec < volumeMinGapStd:
		return Verdict{Flagged: true, Reason: "robotic-timing"}
	default:
		return Verdict{}
	}
}
