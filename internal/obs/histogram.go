package obs

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// DefBuckets are the default histogram bounds, tuned for request
// latencies in seconds (the Prometheus convention).
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Histogram counts observations into fixed upper-bound buckets. Observe
// is lock-free: a binary search over the (immutable) bounds, one atomic
// bucket increment, and a CAS loop folding the value into the sum — no
// allocations, safe for hot paths. Exposition follows the Prometheus
// histogram convention: cumulative name_bucket{le=...} series plus
// name_sum and name_count.
type Histogram struct {
	bounds []float64 // sorted upper bounds; counts has one extra +Inf slot
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	// les holds the pre-rendered le label values, bounds plus "+Inf".
	les []string
}

// newHistogram builds a histogram with the given bounds (nil selects
// DefBuckets). Bounds are sorted and deduplicated.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	bs = uniq
	h := &Histogram{
		bounds: bs,
		counts: make([]atomic.Uint64, len(bs)+1),
		les:    make([]string, len(bs)+1),
	}
	for i, b := range bs {
		h.les[i] = strconv.FormatFloat(b, 'g', -1, 64)
	}
	h.les[len(bs)] = "+Inf"
	return h
}

// Observe folds one value into the histogram.
func (h *Histogram) Observe(v float64) {
	// Smallest bound >= v; all values above the last bound land in +Inf.
	// Inlined binary search: sort.SearchFloat64s routes every probe
	// through a func value, an indirection worth removing from a path
	// that runs once per gate decision.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// collect appends the histogram's exposition samples: cumulative buckets
// in le order, then sum and count.
func (h *Histogram) collect(name string, labels []Label, dst []Sample) []Sample {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ls := make([]Label, 0, len(labels)+1)
		ls = append(ls, labels...)
		ls = append(ls, Label{Name: "le", Value: h.les[i]})
		dst = append(dst, Sample{Name: name + "_bucket", Labels: ls, Value: float64(cum)})
	}
	dst = append(dst, Sample{Name: name + "_sum", Labels: labels, Value: h.Sum()})
	dst = append(dst, Sample{Name: name + "_count", Labels: labels, Value: float64(cum)})
	return dst
}
