//go:build race

package cluster

// raceEnabled lets strict allocation-count tests skip under the race
// detector, whose instrumentation perturbs per-op allocation counts. The
// non-race run still enforces the exact budgets.
const raceEnabled = true
