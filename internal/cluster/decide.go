package cluster

import (
	"net/http"

	"funabuse/internal/httpgate"
)

// routeInfo builds the router's identity view from gate attribution:
// what the caller extracted for Decide, what a node's gate.Client reads
// off the request for Handler.
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
