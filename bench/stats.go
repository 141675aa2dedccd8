package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is the
// rule the acceptance driver applies to run-to-run spreads. Fewer than two
// samples have no spread: both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the inter-quartile distance as a share of the median, the
// noise figure every bound is compared against. A zero median has no
// relative spread.
func spreadShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// bestIndex returns the index of the sample on the good side of xs: the
// smallest of a cost, the largest of a rate. xs must not be empty.
//
// This box is shared. A 150-second trace of a fixed 33 ms kernel shows the
// neighbours adding 25% or more to over half of all runs of it, in bursts
// of tens to hundreds of milliseconds: over 15-second windows the median
// moves by 29%, the lower quartile by 20%, the minimum by 3%. Interference
// only ever adds time, and nearly every window holds some undisturbed
// slots. So the closed-loop workloads time many short rounds of identical
// work and report the round that ran fastest.
func bestIndex(xs []float64, higherIsBetter bool) int {
	at := 0
	for i, x := range xs {
		if (higherIsBetter && x > xs[at]) || (!higherIsBetter && x < xs[at]) {
			at = i
		}
	}
	return at
}

// calmGap is how far the quartile of xs on the good side lies from value,
// as a share of value: it says whether the round a value was taken from was
// one of many like it or a lone outlier.
func calmGap(xs []float64, value float64, higherIsBetter bool) float64 {
	if value == 0 {
		return 0
	}
	calm, q3 := quartiles(xs)
	if higherIsBetter {
		calm = q3
	}
	return math.Abs(calm-value) / math.Abs(value)
}

// percentileLadder is the set of percentiles the harness reports from, each
// with the share of samples beyond it (one in oneIn).
var percentileLadder = []struct {
	p     float64
	oneIn int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// supportedPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it: a p99 quoted from 52 samples is the maximum
// under another name, and the report says so instead.
func supportedPercentile(n int) float64 {
	best := percentileLadder[0].p
	for _, rung := range percentileLadder {
		if n/rung.oneIn >= 10 {
			best = rung.p
		}
	}
	return best
}

// percentile is the nearest-rank percentile of an ascending-sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// mallocCount is the runtime's cumulative heap-object allocation count. It
// stops the world, so callers read it between measured regions only.
func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// liveHeapMiB forces a collection and returns what survived it, in MiB.
// Callers keep the structures they want counted reachable across the call.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// region measures one span of work: wall time, process CPU and mallocs.
type region struct {
	wall    time.Duration
	cpu     float64
	mallocs uint64

	t0 time.Time
	c0 float64
	m0 uint64
}

func (r *region) begin() {
	r.m0 = mallocCount()
	r.c0 = cpuSeconds()
	r.t0 = time.Now()
}

func (r *region) end() {
	r.wall = time.Since(r.t0)
	r.cpu = cpuSeconds() - r.c0
	r.mallocs = mallocCount() - r.m0
}

// rounds holds the same fixed pieces of work timed once per round:
// rounds[r][j] is what piece j cost in round r. The paper-reproduction
// workload uses it, with one experiment (or one replicate) per piece; piece
// j is the same work in every round.
type rounds [][]float64

// best returns, per piece, the minimum over rounds (see bestIndex for
// why). Every piece here lasts long enough to hold many collector
// cycles, so taking its fastest round drops no cost of its own.
func (rs rounds) best() []float64 {
	if len(rs) == 0 {
		return nil
	}
	out := slices.Clone(rs[0])
	for _, round := range rs[1:] {
		for j, x := range round {
			out[j] = min(out[j], x)
		}
	}
	return out
}

// totals returns each round's raw total, the figures the within-run spread
// is computed from.
func (rs rounds) totals() []float64 {
	out := make([]float64, len(rs))
	for r := range rs {
		out[r] = sum(rs[r])
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
