package main

import "testing"

// TestSyndicateLeakContrast asserts the E17 tentpole claim on the seed-1
// run: per-identity volume rules leak the ring's traffic whole (no pooled
// fingerprint ever crosses the threshold), the entity-graph arm collapses
// the ring into one flagged component and cuts the leak by an order of
// magnitude, and neither arm costs a single honest request.
func TestSyndicateLeakContrast(t *testing.T) {
	_, outcomes := mustOutcomes(t, syndicate)

	leak := make(map[string]float64, len(outcomes))
	for _, o := range outcomes {
		rate, ok := o.result.AbusiveLeakRate()
		if !ok {
			t.Fatalf("arm %q: no abusive traffic completed", o.arm.name)
		}
		leak[o.arm.name] = rate

		// The ring's whole design: no volume rule ever fires.
		if len(o.read.rules) != 0 {
			t.Fatalf("arm %q deployed %d volume rules; pooled identities must stay under threshold", o.arm.name, len(o.read.rules))
		}
		// Neither arm may cost honest traffic.
		requireHonestUntaxed(t, o.arm.name, o.result)
	}

	volume := leak["volume rules"]
	if volume != 1.0 {
		t.Fatalf("volume-rules leak = %v, want 1.0: the ring must be invisible to per-identity defences", volume)
	}
	graphArm := leak["volume + entity graph"]
	if graphArm >= volume {
		t.Fatalf("entity-graph arm leak %v, want < volume arm %v", graphArm, volume)
	}
	if graphArm > 0.2 {
		t.Fatalf("entity-graph arm leak %v, want <= 0.2: the flag should land within seconds of the ramp", graphArm)
	}

	// The graph arm's linkage collapses the whole ring into exactly one
	// flagged component, and the entity layer does the denying.
	for _, o := range outcomes {
		if !o.arm.graph {
			continue
		}
		if o.read.stats.FlaggedComponents != 1 {
			t.Fatalf("flagged components = %d, want exactly 1 (the ring)", o.read.stats.FlaggedComponents)
		}
		var entity uint64
		for _, c := range o.result.Classes {
			entity += c.Denied["entity-graph"]
		}
		if entity == 0 {
			t.Fatal("graph arm recorded no entity denials")
		}
	}
}
