//go:build !race

// Package race reports whether the binary was built with the race
// detector. Strict allocation-count and heap tests skip under it: its
// instrumentation, and sync.Pool's deliberate put dropping in race mode,
// perturb per-op allocation counts. The run without it still enforces the
// exact budgets.
package race

// Enabled is true in a -race build.
const Enabled = false
