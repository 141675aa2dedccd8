package httpgate

import (
	"net/http"
	"sync"
	"time"
)

// batchScratch is the pooled working set of one DecideBatch call: the
// double-buffered undecided index sets, the key arena and slice headers
// for bulk limiter probes, and the verdict buffer. Everything is retained
// across calls, so steady-state batches allocate nothing.
type batchScratch struct {
	a, b     []int32
	probe    []int32
	keys     [][]byte
	verdicts []bool
	arena    []byte
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// DecideBatch evaluates reqs as one round: it shares a single clock
// reading, takes one breaker-state snapshot per built-in layer, and
// probes the built-in limiters in bulk (each shard lock taken once per
// layer, every key hashed once). Verdicts are written into out — reused
// when cap(out) >= len(reqs), reallocated otherwise — and the possibly
// regrown slice is returned.
//
// Per-request semantics are those of len(reqs) sequential Decide calls
// made in index order at the shared instant: layer outcomes, denial
// reasons, degraded masks, counters and per-key limiter decisions are
// identical (TestDecideBatchMatchesSequential pins this). Two documented
// divergences, both invisible to verdicts in a healthy gate: built-in
// layers record one aggregated breaker success per round instead of one
// per request (only breaker bookkeeping differs; in the half-open state
// a batch consumes one probe where N sequential calls would consume up
// to N), and the decision journal runs after all layer evaluation, so
// hook side effects of one request in the batch are not observed by the
// layer checks of another. Custom CheckFunc layers — the remote-lookup
// and fault-injection seam — keep exact per-request breaker semantics.
func (g *Gate) DecideBatch(reqs []Request, out []Decision) []Decision {
	n := len(reqs)
	if cap(out) < n {
		out = make([]Decision, n)
	}
	out = out[:n]
	if n == 0 {
		return out
	}
	clear(out)

	now := g.clock.Now()
	sc := batchPool.Get().(*batchScratch)
	ctx := acquireCtx(nil, ClientInfo{}, now)

	pending := sc.a[:0]
	for i := range reqs {
		if g.cfg.RequireFingerprint && !reqs[i].Info.HasFingerprint {
			out[i] = Decision{Reason: ReasonChallenge, Status: http.StatusForbidden}
			continue
		}
		pending = append(pending, int32(i))
	}

	alt := sc.b
	for si := range g.steps {
		if len(pending) == 0 {
			break
		}
		pending, alt = g.batchStep(&g.steps[si], reqs, out, pending, alt[:0], sc, ctx), pending
	}
	sc.a, sc.b = pending, alt

	batchPool.Put(sc)

	// Finalize every request in index order — the journal and the
	// accounting a sequential Decide runs, with the round's totals folded
	// into the gate counters in one atomic add per counter and telemetry
	// recorded once per round (observeBatch).
	var admitted, denied, degraded uint64
	for i := range reqs {
		d := &out[i]
		ctx.bind(reqs[i].R, reqs[i].Info)
		d.Reason, d.Status, d.Degraded = g.journal(ctx, d.Reason, d.Status, d.Degraded)
		if d.Reason != "" {
			denied++
		} else {
			admitted++
		}
		if d.Degraded != 0 {
			degraded++
		}
	}
	releaseCtx(ctx)
	if admitted > 0 {
		g.admitted.Add(admitted)
	}
	if denied > 0 {
		g.denied.Add(denied)
	}
	if degraded > 0 {
		g.degraded.Add(degraded)
	}
	g.observeBatch(now, reqs, out)
	return out
}

// batchStep advances one layer over the undecided requests, writing the
// still-undecided indices into next and returning it. The row picks the
// strategy. Custom CheckFunc layers and hook-backed layers (challenge,
// resource) run the full per-request guarded call, identical to
// sequential decide. Infallible built-ins take one breaker-state snapshot
// for the round — Allow is non-mutating while the breaker is closed, so
// in the healthy state this is indistinguishable from per-request checks
// — and record one aggregated outcome; those with a bulk limiter are
// probed in one AllowBatch.
func (g *Gate) batchStep(st *layerStep, reqs []Request, out []Decision, pending, next []int32, sc *batchScratch, ctx *decisionCtx) []int32 {
	gd := &g.guards[st.layer]
	open := st.infallible && gd.breaker != nil && !gd.breaker.Allow(ctx.now)
	if st.infallible && !open && st.bulk != nil {
		return g.batchBulk(st, reqs, out, pending, next, sc, ctx.now)
	}
	ok := true
	for _, i := range pending {
		if st.needsKey && reqs[i].Info.ClientKey == "" {
			next = append(next, i)
			continue
		}
		ctx.bind(reqs[i].R, reqs[i].Info)
		var v bool
		var deg uint8
		switch {
		case !st.infallible:
			v, deg = g.runCheck(st, ctx)
		case open:
			v, deg = gd.degrade(st.layer, st.passVal)
		default:
			// The shared BlockList, the entity graph and the account store
			// synchronise internally and each request probes distinct
			// identities, so bulk grouping buys nothing.
			var err error
			if v, err = g.safeCall(gd, st, ctx); err != nil { // unreachable for the built-ins; guard stays honest
				gd.errors.Add(1)
				ok = false
				v, deg = gd.degrade(st.layer, st.passVal)
			}
		}
		out[i].Degraded |= deg
		if v != st.passVal {
			out[i].Reason, out[i].Status = st.reason, st.status
		} else {
			next = append(next, i)
		}
	}
	if st.infallible && !open && gd.breaker != nil {
		gd.breaker.Record(ctx.now, ok)
	}
	return next
}

// batchBulk is batchStep for a built-in keyed limiter behind a closed
// breaker: it gathers the round's keys into the arena and bulk-probes the
// limiter — one hash per key, each shard lock taken at most once.
func (g *Gate) batchBulk(st *layerStep, reqs []Request, out []Decision, pending, next []int32, sc *batchScratch, now time.Time) []int32 {
	lim, key := st.bulk(g)
	probe, keys, arena := sc.probe[:0], sc.keys[:0], sc.arena[:0]
	for _, i := range pending {
		if st.needsKey && reqs[i].Info.ClientKey == "" {
			next = append(next, i)
			continue
		}
		off := len(arena)
		arena = key(arena, reqs[i].R, &reqs[i].Info)
		keys = append(keys, arena[off:len(arena):len(arena)])
		probe = append(probe, i)
	}
	verdicts := sc.verdicts
	if cap(verdicts) < len(keys) {
		verdicts = make([]bool, len(keys))
	}
	verdicts = verdicts[:len(keys)]
	lim.AllowBatch(now, keys, verdicts)
	if gd := &g.guards[st.layer]; gd.breaker != nil {
		gd.breaker.Record(now, true)
	}
	for j, i := range probe {
		if verdicts[j] {
			next = append(next, i)
		} else {
			out[i].Reason, out[i].Status = st.reason, st.status
		}
	}
	sc.probe, sc.keys, sc.verdicts, sc.arena = probe, keys, verdicts, arena
	return next
}
