package signal

import (
	"math"
	"time"
)

// Window is a sliding-window event counter over a ring of sub-window
// buckets. Unlike a timestamp slice it uses constant memory regardless of
// event rate: an event is folded into the bucket covering its instant and
// the ring recycles buckets as time advances.
//
// The trade-off is expiry granularity: with B buckets over window W, an
// event stops counting somewhere in (W - W/B, W] after it happened rather
// than at exactly W. Counts are therefore never stale by more than one
// bucket width, and never over-counted beyond the true trailing window.
//
// Cost model. Beside the ring the window keeps head, the newest bucket it
// has been advanced to, and the running total of the slots inside the span
// ending at head. Add maintains both. A read at or after head costs what
// changed since the last write: O(1) inside head's bucket, one slot per
// bucket elapsed across buckets, and an immediate 0 once a key has been
// idle for the whole span, so sweeps never touch an idle ring's slots. A
// read before head — the clock stepped back, or a peer's ring raced ahead
// of the reader's clock — falls back to scanning every slot, and so does
// every read of a ring DecodeState built, which keeps no running total.
// Either way the answer is exactly what a full scan of the ring would
// give. Count and Empty are pure reads: they never move head, so reading
// a decoded peer state leaves it as it arrived.
//
// Window is not safe for concurrent use; Limiter and Engine shard and lock
// around it.
type Window struct {
	width   time.Duration
	buckets int
	// head is the newest bucket number the ring has been advanced to (no
	// slot holding events has a later one), and total is the sum of the
	// slots holding buckets in (head-buckets, head]. A decoded ring, and a
	// merged one whose in-span slots do not all sit at their own bucket's
	// index (only corrupt gossip builds one), pin head at math.MaxInt64,
	// so their reads scan.
	head   int64
	total  int
	counts []uint32
	nums   []int64 // absolute bucket number stored in each slot
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
	w.head, w.total = o.head, o.total
	return w
}

// Add folds n events at the given instant into the ring.
func (w *Window) Add(now time.Time, n int) {
	if n <= 0 {
		return
	}
	w.addAt(bucketIndex(now, w.width), n)
}

// Count returns the number of events within the trailing window as of now.
func (w *Window) Count(now time.Time) int {
	return w.countAt(bucketIndex(now, w.width))
}

// Empty reports whether no in-window events remain as of now. It is the
// eviction predicate sharded containers use to drop idle keys.
func (w *Window) Empty(now time.Time) bool {
	// Every slot holds a non-negative count, so the sum is zero exactly
	// when no in-window slot holds events.
	return w.countAt(bucketIndex(now, w.width)) == 0
}

// admit is Count(now) < limit followed, when true, by Add(now, 1), on one
// bucket division and one expiry walk: the limiter's read-then-write. A
// denied attempt may still advance head, which changes no answer.
func (w *Window) admit(now time.Time, limit int) bool {
	num := bucketIndex(now, w.width)
	if num > w.head {
		w.advance(num)
	}
	if w.countAt(num) >= limit {
		return false
	}
	w.addAt(num, 1)
	return true
}

// addCount is Add(now, 1) followed by Count(now) on one bucket division:
// the engine's write-then-read.
func (w *Window) addCount(now time.Time) int {
	num := bucketIndex(now, w.width)
	w.addAt(num, 1)
	return w.countAt(num)
}

// advance moves head forward to num > head, dropping from total the slots
// that leave the span.
func (w *Window) advance(num int64) {
	w.total = w.countAhead(num)
	w.head = num
}

// addAt folds n > 0 events into bucket num, keeping head and total.
func (w *Window) addAt(num int64, n int) {
	if num > w.head {
		w.advance(num)
	}
	slot := w.slot(num)
	if w.nums[slot] != num {
		if w.inSpan(w.nums[slot]) {
			w.total -= int(w.counts[slot])
		}
		w.counts[slot] = 0
		w.nums[slot] = num
	}
	old := w.counts[slot]
	w.counts[slot] += uint32(n)
	if w.inSpan(num) {
		// The slot's delta, not n: a wrapped uint32 slot counts what it holds.
		w.total += int(w.counts[slot]) - int(old)
	}
}

// countAt is Count at bucket num.
func (w *Window) countAt(num int64) int {
	switch {
	case num == w.head:
		return w.total
	case num < w.head:
		return w.scan(num)
	default:
		return w.countAhead(num)
	}
}

// countAhead is the count at bucket num > head: total less the slots that
// leave the span between head and num. Every in-span slot sits at its own
// bucket's index, so each elapsed bucket costs one slot probe.
func (w *Window) countAhead(num int64) int {
	if uint64(num-w.head) >= uint64(w.buckets) {
		return 0
	}
	total := w.total
	last := num - int64(w.buckets)
	slot := w.slot(w.head + 1) // the slot of bucket head-buckets+1
	for b := w.head - int64(w.buckets) + 1; b <= last; b++ {
		if w.nums[slot] == b {
			total -= int(w.counts[slot])
		}
		if slot++; slot == w.buckets {
			slot = 0
		}
	}
	return total
}

// scan sums every slot holding a bucket of the span ending at num: the
// fallback for reads before head.
func (w *Window) scan(num int64) int {
	oldest := num - int64(w.buckets) + 1
	total := 0
	for i, c := range w.counts {
		if c != 0 && w.nums[i] >= oldest && w.nums[i] <= num {
			total += int(c)
		}
	}
	return total
}

// slot is bucket num's ring index.
func (w *Window) slot(num int64) int {
	slot := int(num % int64(w.buckets))
	if slot < 0 {
		slot += w.buckets
	}
	return slot
}

// inSpan reports whether bucket num lies in (head-buckets, head].
func (w *Window) inSpan(num int64) bool {
	return uint64(w.head-num) < uint64(w.buckets)
}

// recountAt sets head, which must be non-negative and no earlier than any
// occupied slot's bucket, and rebuilds total from slots that were written
// directly (a merge). It also checks that every in-span slot
// sits at its bucket's index: bucket head-k belongs in slot headSlot-k
// (mod buckets), so slot i is aligned when i+k lands on headSlot, with no
// division per slot.
func (w *Window) recountAt(head int64) {
	headSlot := w.slot(head)
	total, aligned := 0, true
	for i, c := range w.counts {
		if c == 0 {
			continue // most slots of a sparse ring: skip without touching nums
		}
		k := uint64(head - w.nums[i])
		if k >= uint64(w.buckets) {
			continue
		}
		total += int(c)
		s := i + int(k)
		aligned = aligned && (s == headSlot || s == headSlot+w.buckets)
	}
	w.head, w.total = head, total
	if !aligned {
		w.scanOnly(head)
	}
}

// scanOnly pins head past every bucket an instant can name, so every read
// scans — a decoded ring, which is only ever read, skips the recount that
// way — and sets total to the span ending there, which only the last
// representable instant reads. newest is no earlier than any occupied
// slot's bucket.
func (w *Window) scanOnly(newest int64) {
	w.head, w.total = math.MaxInt64, 0
	if newest > math.MaxInt64-int64(w.buckets) {
		w.total = w.scan(math.MaxInt64)
	}
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
	head := int64(0)
	for i, c := range o.counts {
		switch {
		case c == 0:
		case w.counts[i] == 0:
			w.nums[i] = o.nums[i]
			w.counts[i] = c
		case o.nums[i] == w.nums[i]:
			w.counts[i] += c
		case o.nums[i] > w.nums[i]:
			w.nums[i] = o.nums[i]
			w.counts[i] = c
		}
		if w.counts[i] != 0 {
			head = max(head, w.nums[i])
		}
	}
	w.recountAt(head)
	return true
}

// Clone returns a deep copy of the ring.
func (w *Window) Clone() *Window {
	c := &Window{
		width:   w.width,
		buckets: w.buckets,
		head:    w.head,
		total:   w.total,
		counts:  make([]uint32, len(w.counts)),
		nums:    make([]int64, len(w.nums)),
	}
	copy(c.counts, w.counts)
	copy(c.nums, w.nums)
	return c
}

// Reset clears all buckets.
func (w *Window) Reset() {
	clear(w.counts)
	clear(w.nums)
	w.head, w.total = 0, 0
}
