package cluster

import (
	"net/http"

	"funabuse/internal/httpgate"
)

// route is the front's one gossip-and-route step, shared by Decide and
// Handler: it runs any due gossip round, then returns the node the router
// picks for info's identity, node 0 when the router answers out of range.
func (c *Cluster) route(info httpgate.ClientInfo) *node {
	c.maybeGossip(c.clock.Now())
	idx := c.router.Route(RouteInfo{
		Fingerprint:    info.Fingerprint,
		HasFingerprint: info.HasFingerprint,
		IP:             info.IP,
	}, len(c.nodes))
	if idx < 0 || idx >= len(c.nodes) {
		idx = 0
	}
	return c.nodes[idx]
}

// Decide routes one request exactly as Handler does and evaluates it on
// that node's gate in-process, skipping the HTTP front entirely.
func (c *Cluster) Decide(r *http.Request, info httpgate.ClientInfo) httpgate.Decision {
	return c.route(info).gate.Decide(r, info)
}
