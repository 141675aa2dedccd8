package main

import "testing"

// TestClustersimLeakCurve asserts the tentpole claim on the seed-1 run:
// a per-node-only defence leaks strictly more than every
// sketch-replicated fleet, and within a fixed fleet size the leak rate
// falls monotonically as the gossip interval shrinks.
func TestClustersimLeakCurve(t *testing.T) {
	_, outcomes := mustOutcomes(t, clustersim)

	leak := make(map[string]float64, len(outcomes))
	for _, o := range outcomes {
		rate, ok := o.result.AbusiveLeakRate()
		if !ok {
			t.Fatalf("arm %q: no abusive traffic completed", o.arm.name)
		}
		leak[o.arm.name] = rate
	}

	perNode := leak["per-node n=4"]
	if perNode != 1.0 {
		t.Fatalf("per-node defence leak = %v, want 1.0: the distributed volume must be invisible without replication", perNode)
	}
	for _, o := range outcomes {
		if !o.arm.replicate {
			continue
		}
		if leak[o.arm.name] >= perNode {
			t.Fatalf("replicated arm %q leak %v, want < per-node %v", o.arm.name, leak[o.arm.name], perNode)
		}
	}
	// Monotone in gossip interval at n=4: 8s ≥ 4s ≥ 2s, strict overall.
	g8, g4, g2 := leak["merged n=4 g=8s"], leak["merged n=4 g=4s"], leak["merged n=4 g=2s"]
	if g8 < g4 || g4 < g2 {
		t.Fatalf("leak not monotone in gossip interval: 8s=%v 4s=%v 2s=%v", g8, g4, g2)
	}
	if g8 <= g2 {
		t.Fatalf("leak flat across the gossip sweep: 8s=%v 2s=%v", g8, g2)
	}
	// The all-seeing single node lower-bounds every gossiping fleet.
	if single := leak["single-node"]; single > g2 {
		t.Fatalf("single-node leak %v above fastest fleet %v", single, g2)
	}
	// Replication must never tax honest traffic.
	for _, o := range outcomes {
		requireHonestUntaxed(t, o.arm.name, o.result)
	}
}
