package httpgate

// DecideBatch is exactly len(reqs) Decide calls, made in index order: each
// request reads its own clock instant, and the counters, telemetry,
// breakers and decision journal see what per-request calls would. Verdicts
// are written into out — reused when cap(out) >= len(reqs), reallocated
// otherwise — and the possibly regrown slice is returned.
func (g *Gate) DecideBatch(reqs []Request, out []Decision) []Decision {
	if cap(out) < len(reqs) {
		out = make([]Decision, len(reqs))
	}
	out = out[:len(reqs)]
	for i := range reqs {
		out[i] = g.Decide(reqs[i].R, reqs[i].Info)
	}
	return out
}
