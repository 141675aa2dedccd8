package cluster

import (
	"strconv"

	"funabuse/internal/httpgate"
	"funabuse/internal/obs"
)

// Cluster metric names, exported so collector consumers can point-read
// them with obs.Value. The per-node families carry a node label; the
// fleet families aggregate over every node's gate and engine.
const (
	MetricNodes           = "cluster_nodes"
	MetricGossipRounds    = "cluster_gossip_rounds_total"
	MetricRulesOriginated = "cluster_rules_originated_total"
	MetricRulesReplicated = "cluster_rules_replicated_total"
	MetricNodeObserved    = "cluster_node_observed_total"
	MetricFleetAdmitted   = "cluster_fleet_admitted_total"
	MetricFleetDenied     = "cluster_fleet_denied_total"
	MetricFleetObserved   = "cluster_fleet_observed_total"
	MetricRulePropagation = "cluster_rule_propagation_seconds"
	// MetricGossipRoundSeconds is the histogram of full anti-entropy
	// round durations, registered on the Telemetry registry by New.
	MetricGossipRoundSeconds = "cluster_gossip_round_seconds"
	// MetricGossipFailures counts failed peer fetches by reason label
	// (transport, decode, unpublished).
	MetricGossipFailures = "cluster_gossip_failures_total"
	// MetricPeerStaleness gauges, per (node, peer) label pair, how long
	// ago the node last absorbed a good snapshot from the peer.
	MetricPeerStaleness = "cluster_peer_staleness_seconds"
	// MetricDegradedResponses counts, per node, responses served while
	// the node's gossip view was stale (stamped FleetDegradedHeader).
	MetricDegradedResponses = "cluster_degraded_responses_total"
)

// Collector exposes the fleet's replication and aggregate serving
// counters on the obs snapshot contract: per-node rule-origination,
// rule-application and engine-observation families plus
// fleet-aggregated sums point-read from each node's gate collector. Node
// order is fixed, so a quiesced scrape is deterministic.
func (c *Cluster) Collector() obs.Collector {
	nodeLabels := make([][]obs.Label, len(c.nodes))
	for i := range c.nodes {
		nodeLabels[i] = []obs.Label{{Name: "node", Value: strconv.Itoa(i)}}
	}
	return obs.CollectorFunc(func(dst []obs.Sample) []obs.Sample {
		dst = append(dst,
			obs.Sample{Name: MetricNodes, Value: float64(len(c.nodes))},
			obs.Sample{Name: MetricGossipRounds, Value: float64(c.rounds.Load())},
		)
		for i, reason := range failReasons {
			dst = append(dst, obs.Sample{
				Name:   MetricGossipFailures,
				Labels: []obs.Label{{Name: "reason", Value: reason}},
				Value:  float64(c.failures[i].Load()),
			})
		}
		var admitted, denied, observed float64
		for i, n := range c.nodes {
			n.mu.Lock()
			orig, repl := len(n.originated), n.replicated
			n.mu.Unlock()
			obsd := n.engine.Observed()
			observed += float64(obsd)
			dst = append(dst,
				obs.Sample{Name: MetricRulesOriginated, Labels: nodeLabels[i], Value: float64(orig)},
				obs.Sample{Name: MetricRulesReplicated, Labels: nodeLabels[i], Value: float64(repl)},
				obs.Sample{Name: MetricNodeObserved, Labels: nodeLabels[i], Value: float64(obsd)},
				obs.Sample{Name: MetricDegradedResponses, Labels: nodeLabels[i], Value: float64(n.degradedServed.Load())},
			)
			for j := range c.nodes {
				if j == i {
					continue
				}
				dst = append(dst, obs.Sample{
					Name: MetricPeerStaleness,
					Labels: []obs.Label{
						nodeLabels[i][0],
						{Name: "peer", Value: strconv.Itoa(j)},
					},
					Value: c.PeerStaleness(i, j).Seconds(),
				})
			}
			if v, ok := obs.Value(n.gate.Collector(), httpgate.MetricAdmitted); ok {
				admitted += v
			}
			if v, ok := obs.Value(n.gate.Collector(), httpgate.MetricDenied); ok {
				denied += v
			}
		}
		return append(dst,
			obs.Sample{Name: MetricFleetAdmitted, Value: admitted},
			obs.Sample{Name: MetricFleetDenied, Value: denied},
			obs.Sample{Name: MetricFleetObserved, Value: observed},
		)
	})
}
