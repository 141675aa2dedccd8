package signal

import "time"

// Window is a sliding-window event counter over a ring of sub-window
// buckets. Unlike a timestamp slice it uses constant memory regardless of
// event rate: an event is folded into the bucket covering its instant and
// the ring recycles buckets as time advances.
//
// The trade-off is expiry granularity: with B buckets over window W, an
// event stops counting somewhere in (W - W/B, W] after it happened rather
// than at exactly W. Counts are therefore never stale by more than one
// bucket width, and never over-counted beyond the true trailing window.
// Window is not safe for concurrent use; Limiter and Engine shard and lock
// around it.
type Window struct {
	width   time.Duration
	buckets int
	counts  []uint32
	nums    []int64 // absolute bucket number stored in each slot
}

// DefaultWindowBuckets is the default ring size: expiry granularity of
// ~3% of the window.
const DefaultWindowBuckets = 32

// NewWindow returns a counter over the trailing window split into the
// given number of ring buckets. Non-positive arguments fall back to one
// hour and DefaultWindowBuckets.
func NewWindow(window time.Duration, buckets int) *Window {
	if window <= 0 {
		window = time.Hour
	}
	if buckets <= 0 {
		buckets = DefaultWindowBuckets
	}
	return &Window{
		width:   bucketWidth(window, buckets),
		buckets: buckets,
		counts:  make([]uint32, buckets),
		nums:    make([]int64, buckets),
	}
}

// bucketWidth is the span of one ring bucket, at least a nanosecond.
func bucketWidth(window time.Duration, buckets int) time.Duration {
	return max(window/time.Duration(buckets), 1)
}

// windowSlab carves rings of one geometry out of shared backing arrays: a
// State holds one ring per key, and a slab costs three allocations per
// reserve where separate rings cost three per key. Each ring's slices are
// cut with a full slice expression, so nothing done to one ring can reach
// its neighbours.
type windowSlab struct {
	width   time.Duration
	buckets int
	rings   []Window
	counts  []uint32
	nums    []int64
}

// reserve makes sure n more rings can be carved, replacing the backing
// arrays (and abandoning what was left of them) when they cannot.
func (s *windowSlab) reserve(n int) {
	if len(s.rings) >= n {
		return
	}
	s.rings = make([]Window, n)
	s.counts = make([]uint32, n*s.buckets)
	s.nums = make([]int64, n*s.buckets)
}

// next carves one zeroed ring out of what reserve set aside.
func (s *windowSlab) next() *Window {
	w, b := &s.rings[0], s.buckets
	*w = Window{width: s.width, buckets: b, counts: s.counts[:b:b], nums: s.nums[:b:b]}
	s.rings, s.counts, s.nums = s.rings[1:], s.counts[b:], s.nums[b:]
	return w
}

// clone carves a copy of o, a ring of the slab's geometry.
func (s *windowSlab) clone(o *Window) *Window {
	w := s.next()
	copy(w.counts, o.counts)
	copy(w.nums, o.nums)
	return w
}

// Span returns the nominal trailing window (bucket width times ring size).
func (w *Window) Span() time.Duration {
	return w.width * time.Duration(w.buckets)
}

// Add folds n events at the given instant into the ring.
func (w *Window) Add(now time.Time, n int) {
	if n <= 0 {
		return
	}
	num := bucketIndex(now, w.width)
	slot := int(num % int64(w.buckets))
	if slot < 0 {
		slot += w.buckets
	}
	if w.nums[slot] != num {
		w.counts[slot] = 0
		w.nums[slot] = num
	}
	w.counts[slot] += uint32(n)
}

// Count returns the number of events within the trailing window as of now.
func (w *Window) Count(now time.Time) int {
	num := bucketIndex(now, w.width)
	oldest := num - int64(w.buckets) + 1
	total := 0
	for i, c := range w.counts {
		if c != 0 && w.nums[i] >= oldest && w.nums[i] <= num {
			total += int(c)
		}
	}
	return total
}

// Empty reports whether no in-window events remain as of now. It is the
// eviction predicate sharded containers use to drop idle keys.
func (w *Window) Empty(now time.Time) bool {
	num := bucketIndex(now, w.width)
	oldest := num - int64(w.buckets) + 1
	for i, c := range w.counts {
		if c != 0 && w.nums[i] >= oldest && w.nums[i] <= num {
			return false
		}
	}
	return true
}

// Merge folds another ring of identical geometry into this one, slot by
// slot: slots covering the same absolute bucket add their counts, a slot
// holding a newer bucket replaces a stale one, and older buckets are
// discarded — exactly the semantics Add applies when the ring wraps, so a
// merged ring answers Count as if both event streams had been folded into
// one ring all along. It reports whether the geometry (bucket width and
// ring size) matched; mismatched windows are left untouched.
func (w *Window) Merge(o *Window) bool {
	if o == nil || o.width != w.width || o.buckets != w.buckets {
		return false
	}
	for i, c := range o.counts {
		if c == 0 {
			continue
		}
		switch {
		case w.counts[i] == 0:
			w.nums[i] = o.nums[i]
			w.counts[i] = c
		case o.nums[i] == w.nums[i]:
			w.counts[i] += c
		case o.nums[i] > w.nums[i]:
			w.nums[i] = o.nums[i]
			w.counts[i] = c
		}
	}
	return true
}

// Clone returns a deep copy of the ring.
func (w *Window) Clone() *Window {
	c := &Window{
		width:   w.width,
		buckets: w.buckets,
		counts:  make([]uint32, len(w.counts)),
		nums:    make([]int64, len(w.nums)),
	}
	copy(c.counts, w.counts)
	copy(c.nums, w.nums)
	return c
}

// Reset clears all buckets.
func (w *Window) Reset() {
	for i := range w.counts {
		w.counts[i] = 0
		w.nums[i] = 0
	}
}
