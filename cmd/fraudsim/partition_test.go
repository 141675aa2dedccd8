package main

import "testing"

// TestPartitionDropCurve asserts the drop-sweep claims on the seed-1 run:
// the attacker leak rate is monotone non-decreasing in gossip drop
// probability with a strict rise across the sweep, and one fetch retry at
// p=0.6 recovers a large share of the failed exchanges.
func TestPartitionDropCurve(t *testing.T) {
	_, outcomes := mustOutcomes(t, partition)

	byName := make(map[string]partitionOutcome, len(outcomes))
	for _, o := range outcomes {
		byName[o.arm.name] = o
	}
	leak := func(name string) float64 {
		o, ok := byName[name]
		if !ok {
			t.Fatalf("arm %q missing", name)
		}
		rate, ok := o.result.AbusiveLeakRate()
		if !ok {
			t.Fatalf("arm %q: no abusive traffic completed", name)
		}
		return rate
	}

	sweep := []string{"clean", "drop p=0.3", "drop p=0.6", "drop p=0.9"}
	for i := 1; i < len(sweep); i++ {
		lo, hi := leak(sweep[i-1]), leak(sweep[i])
		if hi < lo {
			t.Fatalf("leak not monotone in drop probability: %q=%v > %q=%v",
				sweep[i-1], lo, sweep[i], hi)
		}
	}
	if leak(sweep[0]) >= leak(sweep[len(sweep)-1]) {
		t.Fatalf("leak flat across the drop sweep: clean=%v p=0.9=%v",
			leak(sweep[0]), leak(sweep[len(sweep)-1]))
	}

	// Retry value: at the same 0.6 drop rate, one retry must cut both the
	// failed exchanges and the degraded-response count.
	bare, retry := byName["drop p=0.6"], byName["drop p=0.6 retry"]
	if retry.read.stats.FetchFailures >= bare.read.stats.FetchFailures {
		t.Fatalf("retry did not reduce fetch failures: %d (retry) vs %d (bare)",
			retry.read.stats.FetchFailures, bare.read.stats.FetchFailures)
	}
	if retry.read.stats.DegradedResponses >= bare.read.stats.DegradedResponses {
		t.Fatalf("retry did not reduce degraded responses: %d (retry) vs %d (bare)",
			retry.read.stats.DegradedResponses, bare.read.stats.DegradedResponses)
	}

	// Delay sweep: staler snapshots can only leak more.
	if d4, d8 := leak("delay 4s"), leak("delay 8s"); d8 < d4 {
		t.Fatalf("leak not monotone in propagation delay: 4s=%v 8s=%v", d4, d8)
	}

	// Injected faults must never tax honest traffic: fail-static keeps
	// serving below-threshold clients through every fault plan.
	for _, o := range outcomes {
		requireHonestUntaxed(t, o.arm.name, o.result)
	}
}

// TestPartitionHealConvergence asserts the timeline claims: while the
// fleet is split neither half's view crosses the rule threshold — the cut
// window leaks wholesale and stamps degraded responses — and the first
// post-heal exchange merges the halves, lands the rule, and converges the
// leak back to the healthy arm's blocked state.
func TestPartitionHealConvergence(t *testing.T) {
	_, outcomes := mustOutcomes(t, partition)
	var healthy, parted *partitionRead
	for i := range outcomes {
		switch outcomes[i].arm.name {
		case "healthy":
			healthy = &outcomes[i].read
		case "partitioned":
			parted = &outcomes[i].read
		}
	}
	if healthy == nil || parted == nil {
		t.Fatal("timeline arms missing")
	}

	if healthy.firstRule < 0 {
		t.Fatal("healthy arm never originated a rule")
	}
	if healthy.firstRule >= partitionCutStart+partitionCutLen {
		t.Fatalf("healthy arm detected only at +%v, after the cut window — threshold too high to separate the arms", healthy.firstRule)
	}
	if parted.firstRule < 0 {
		t.Fatal("partitioned arm never originated a rule — the heal did not converge")
	}
	if parted.firstRule < partitionCutStart+partitionCutLen {
		t.Fatalf("partitioned arm detected at +%v, inside the cut: a split half crossed the threshold", parted.firstRule)
	}

	bucketLeak := func(o *partitionRead, i int) float64 {
		if i >= len(o.buckets) || o.buckets[i].abusiveDone == 0 {
			return -1
		}
		b := o.buckets[i]
		return float64(b.abusiveAdmitted) / float64(b.abusiveDone)
	}
	// During the cut the partitioned fleet leaks wholesale while the
	// healthy fleet has already converged to blocking.
	cutBucket := int((partitionCutStart + partitionCutLen) / partitionBucket)
	if got := bucketLeak(parted, cutBucket-1); got != 1.0 {
		t.Fatalf("partitioned leak in final cut bucket = %v, want 1.0", got)
	}
	if got := bucketLeak(healthy, cutBucket-1); got != 0.0 {
		t.Fatalf("healthy leak in final cut bucket = %v, want 0.0", got)
	}
	// Post-heal convergence: the last two buckets must match the healthy
	// arm's fully-blocked state.
	last := len(parted.buckets) - 1
	for _, i := range []int{last - 1, last} {
		if got := bucketLeak(parted, i); got != 0.0 {
			t.Fatalf("partitioned leak in bucket %d = %v after heal, want 0.0", i, got)
		}
	}
	// The cut must be visible in the degradation signal: stamps during the
	// outage, none once staleness clears after the heal.
	var duringCut, tail int
	for i, b := range parted.buckets {
		if i >= int(partitionCutStart/partitionBucket) && i < cutBucket {
			duringCut += b.degraded
		}
		if i >= last-1 {
			tail += b.degraded
		}
	}
	if duringCut == 0 {
		t.Fatal("no degraded responses stamped during the cut window")
	}
	if tail != 0 {
		t.Fatalf("%d degraded responses in the final buckets: staleness did not clear after the heal", tail)
	}
	if healthy.stats.DegradedResponses != 0 {
		t.Fatalf("healthy arm stamped %d degraded responses", healthy.stats.DegradedResponses)
	}
}
