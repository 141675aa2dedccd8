package cluster

import (
	"net/http"
	"sync"

	"funabuse/internal/httpgate"
)

// routeInfo builds the router's identity view from gate attribution:
// what the caller extracted for Decide and DecideBatch, what a node's
// gate.Client reads off the request for Handler.
func routeInfo(info httpgate.ClientInfo) RouteInfo {
	return RouteInfo{
		Fingerprint:    info.Fingerprint,
		HasFingerprint: info.HasFingerprint,
		IP:             info.IP,
	}
}

// Decide routes one request exactly as Handler does — any due gossip
// round first, then the router picks the owning node — and evaluates it
// on that node's gate in-process, skipping the HTTP front entirely.
func (c *Cluster) Decide(r *http.Request, info httpgate.ClientInfo) httpgate.Decision {
	c.maybeGossip(c.clock.Now())
	idx := c.router.Route(routeInfo(info), len(c.nodes))
	if idx < 0 || idx >= len(c.nodes) {
		idx = 0
	}
	return c.nodes[idx].gate.Decide(r, info)
}

// fleetScratch is the pooled working set of one DecideBatch call: the
// per-node index and request groups and each node's verdict buffer.
type fleetScratch struct {
	idx  [][]int32
	reqs [][]httpgate.Request
	outs [][]httpgate.Decision
}

var fleetPool = sync.Pool{New: func() any { return new(fleetScratch) }}

// DecideBatch scatters the batch across the fleet — one router decision
// per request, preserving index order within each node's group — then
// evaluates each node's group with a single gate.DecideBatch round and
// gathers the verdicts back into out (reused when large enough,
// reallocated otherwise). The gossip interval is checked once per batch
// rather than once per request; with the interval far above batch
// durations (the configured regimes), round counts are indistinguishable
// from per-request fronting.
func (c *Cluster) DecideBatch(reqs []httpgate.Request, out []httpgate.Decision) []httpgate.Decision {
	n := len(reqs)
	if cap(out) < n {
		out = make([]httpgate.Decision, n)
	}
	out = out[:n]
	if n == 0 {
		return out
	}
	c.maybeGossip(c.clock.Now())

	sc := fleetPool.Get().(*fleetScratch)
	nodes := len(c.nodes)
	for len(sc.idx) < nodes {
		sc.idx = append(sc.idx, nil)
		sc.reqs = append(sc.reqs, nil)
		sc.outs = append(sc.outs, nil)
	}
	for ni := 0; ni < nodes; ni++ {
		sc.idx[ni] = sc.idx[ni][:0]
		sc.reqs[ni] = sc.reqs[ni][:0]
	}
	for i := range reqs {
		idx := c.router.Route(routeInfo(reqs[i].Info), nodes)
		if idx < 0 || idx >= nodes {
			idx = 0
		}
		sc.idx[idx] = append(sc.idx[idx], int32(i))
		sc.reqs[idx] = append(sc.reqs[idx], reqs[i])
	}
	for ni := 0; ni < nodes; ni++ {
		group := sc.reqs[ni]
		if len(group) == 0 {
			continue
		}
		sc.outs[ni] = c.nodes[ni].gate.DecideBatch(group, sc.outs[ni])
		for j, i := range sc.idx[ni] {
			out[i] = sc.outs[ni][j]
		}
		// Drop request references: the pool must not pin request memory
		// between batches.
		clear(sc.reqs[ni])
	}
	fleetPool.Put(sc)
	return out
}
