package entitygraph

import (
	"fmt"
	"testing"
)

// benchBudget is the churn workload's node budget (bench/ gate_churn).
const benchBudget = 4096

// benchPairs returns n fingerprint+address observations as the gate's
// feeder presents them: byte views, one pair per identity.
func benchPairs(n int) [][][]byte {
	pairs := make([][][]byte, n)
	for i := range pairs {
		pairs[i] = [][]byte{
			[]byte(FingerprintKey(uint64(i) * 0x9e3779b97f4a7c15)),
			[]byte(IPKey(fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255))),
		}
	}
	return pairs
}

// BenchmarkGraphObserveBytes is the hit path: a known pair, the edge write
// and the union of two nodes already in one component.
func BenchmarkGraphObserveBytes(b *testing.B) {
	g := New(Config{})
	pairs := benchPairs(benchBudget / 2)
	for _, p := range pairs {
		g.ObserveBytes(p, 0.5)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		g.ObserveBytes(pairs[i%len(pairs)], 0)
		i++
	}
}

// BenchmarkGraphObserveEvict is the attack path: every observation is a
// fresh pair against a saturated node budget, so one observation in 512
// evicts 1,024 nodes and rebuilds the forest. The ring is sixteen budgets
// long; a pair is long gone when it recurs.
func BenchmarkGraphObserveEvict(b *testing.B) {
	g := New(Config{MaxNodes: benchBudget})
	pairs := benchPairs(16 * benchBudget)
	i := 0
	observe := func() {
		g.ObserveBytes(pairs[i%len(pairs)], 0.5)
		i++
	}
	for range 2 * benchBudget {
		observe()
	}
	b.ReportAllocs()
	for b.Loop() {
		observe()
	}
}
