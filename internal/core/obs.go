package core

import "funabuse/internal/obs"

// Collector adapts the application's pipeline counters and blocklist
// posture to the unified obs.Collector contract. The stats counters are
// atomic and the blocklist locks internally, so the collector is safe to
// scrape from a telemetry goroutine while the simulation is running.
func (a *Application) Collector() obs.Collector {
	return obs.CollectorFunc(func(dst []obs.Sample) []obs.Sample {
		st := a.stats.snapshot()
		dst = append(dst,
			obs.Sample{Name: "app_requests_total", Value: float64(st.Requests)},
			obs.Sample{Name: "app_blocked_total", Value: float64(st.Blocked)},
			obs.Sample{Name: "app_challenged_total", Value: float64(st.Challenged)},
			obs.Sample{Name: "app_challenge_rejected_total", Value: float64(st.ChallengeRej)},
			obs.Sample{Name: "app_rate_limited_total", Value: float64(st.RateLimited)},
			obs.Sample{Name: "app_served_total", Value: float64(st.Served)},
			obs.Sample{Name: "app_block_rules", Value: float64(a.blocks.Len())},
			obs.Sample{Name: "app_block_rules_added_total", Value: float64(a.blocks.RulesAdded())},
			obs.Sample{Name: "app_block_hits_total", Value: float64(a.blocks.Hits())},
		)
		return dst
	})
}
