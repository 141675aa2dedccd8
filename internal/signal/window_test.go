package signal

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"funabuse/internal/simrand"
)

var t0 = time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)

func TestWindowCountsWithinWindow(t *testing.T) {
	w := NewWindow(time.Hour, 60)
	w.Add(t0, 1)
	w.Add(t0.Add(10*time.Minute), 2)
	if got := w.Count(t0.Add(10 * time.Minute)); got != 3 {
		t.Fatalf("count %d, want 3", got)
	}
}

func TestWindowExpiresOldEvents(t *testing.T) {
	w := NewWindow(time.Hour, 60)
	w.Add(t0, 5)
	if got := w.Count(t0.Add(59 * time.Minute)); got != 5 {
		t.Fatalf("in-window count %d, want 5", got)
	}
	if got := w.Count(t0.Add(61 * time.Minute)); got != 0 {
		t.Fatalf("expired count %d, want 0", got)
	}
	if !w.Empty(t0.Add(61 * time.Minute)) {
		t.Fatal("window not empty after expiry")
	}
}

func TestWindowExpiryGranularity(t *testing.T) {
	// An event must never outlive the nominal window by more than zero
	// and never die more than one bucket width early.
	const buckets = 32
	w := NewWindow(time.Hour, buckets)
	width := time.Hour / buckets
	w.Add(t0, 1)
	if got := w.Count(t0.Add(time.Hour - width)); got != 1 {
		t.Fatalf("event expired %v early", width)
	}
	if got := w.Count(t0.Add(time.Hour)); got != 0 {
		t.Fatal("event outlived the nominal window")
	}
}

func TestWindowRingRecyclesBuckets(t *testing.T) {
	w := NewWindow(time.Hour, 4)
	// Fill every bucket, then wrap far past the ring: stale slots must be
	// recycled, not double counted.
	for i := range 8 {
		w.Add(t0.Add(time.Duration(i)*15*time.Minute), 1)
	}
	at := t0.Add(8 * 15 * time.Minute)
	if got := w.Count(at); got > 4 {
		t.Fatalf("count %d exceeds ring capacity window", got)
	}
	w.Reset()
	if got := w.Count(at); got != 0 {
		t.Fatalf("count after reset %d", got)
	}
}

func TestWindowConstantMemory(t *testing.T) {
	// The motivating property: a million events cost no more state than
	// the ring itself.
	w := NewWindow(time.Minute, 16)
	at := t0
	for range 1_000_000 {
		w.Add(at, 1)
		at = at.Add(time.Millisecond)
	}
	if len(w.counts) != 16 || len(w.nums) != 16 {
		t.Fatalf("ring grew: %d/%d slots", len(w.counts), len(w.nums))
	}
}

func TestLimiterMatchesKeyedLimiterSemantics(t *testing.T) {
	l := NewLimiter(LimiterConfig{Window: time.Hour, Limit: 2, Buckets: 60})
	for i := range 2 {
		if !l.Allow("k", t0) {
			t.Fatalf("attempt %d denied", i)
		}
	}
	if l.Allow("k", t0) {
		t.Fatal("over-limit attempt allowed")
	}
	if l.Denials() != 1 {
		t.Fatalf("denials %d, want 1", l.Denials())
	}
	// Independent keys.
	if !l.Allow("other", t0) {
		t.Fatal("independent key denied")
	}
	// Denied attempts do not consume allowance: after the window slides,
	// the full allowance is back.
	if !l.Allow("k", t0.Add(61*time.Minute)) {
		t.Fatal("window did not slide")
	}
}

func TestLimiterEvictsIdleKeys(t *testing.T) {
	l := NewLimiter(LimiterConfig{Window: time.Minute, Limit: 5})
	for i := range 3000 {
		l.Allow("k"+itoa(i), t0)
	}
	if l.TrackedKeys() == 0 {
		t.Fatal("no keys tracked")
	}
	l.Sweep(t0.Add(2 * time.Minute))
	if got := l.TrackedKeys(); got != 0 {
		t.Fatalf("%d stale keys survived an explicit sweep", got)
	}
	// The automatic per-shard sweep fires after enough operations on a
	// shard; spread fresh traffic across keys so every stripe gets ops.
	for i := range 3000 {
		l.Allow("old"+itoa(i), t0.Add(3*time.Minute))
	}
	for i := range 60000 {
		at := t0.Add(10*time.Minute + time.Duration(i)*time.Second)
		l.Allow("fresh"+itoa(i%64), at)
	}
	if got := l.TrackedKeys(); got > 200 {
		t.Fatalf("%d keys tracked after automatic sweeps, want bounded", got)
	}
}

func TestWindowMerge(t *testing.T) {
	a := NewWindow(time.Hour, 4)
	b := NewWindow(time.Hour, 4)
	a.Add(t0, 2)
	b.Add(t0, 3)
	b.Add(t0.Add(20*time.Minute), 1)
	if !a.Merge(b) {
		t.Fatal("merge of identical geometry failed")
	}
	if got := a.Count(t0.Add(20 * time.Minute)); got != 6 {
		t.Fatalf("merged count %d, want 6", got)
	}
	if a.Merge(NewWindow(time.Hour, 8)) || a.Merge(NewWindow(time.Minute, 4)) {
		t.Fatal("merge of mismatched geometry accepted")
	}
}

func TestWindowMergeNewerBucketWins(t *testing.T) {
	// When two rings place different absolute buckets in the same slot,
	// the newer bucket must replace the stale one — the same recycling
	// Add applies — so merged counts never resurrect expired events.
	a := NewWindow(time.Hour, 4)
	b := NewWindow(time.Hour, 4)
	a.Add(t0, 5)
	wrapped := t0.Add(time.Hour) // same slot as t0's bucket, newer
	b.Add(wrapped, 2)
	if !a.Merge(b) {
		t.Fatal("merge failed")
	}
	if got := a.Count(wrapped); got != 2 {
		t.Fatalf("count after merge %d, want 2 (stale bucket must not survive)", got)
	}
	// Merging the stale ring back in must not resurrect the old bucket.
	stale := NewWindow(time.Hour, 4)
	stale.Add(t0, 7)
	a.Merge(stale)
	if got := a.Count(wrapped); got != 2 {
		t.Fatalf("stale merge resurrected events: count %d, want 2", got)
	}
}

func TestWindowMergeMatchesUnionStream(t *testing.T) {
	// Interleave one event stream across two rings; the merged ring must
	// answer Count exactly as a single ring fed the whole stream.
	union := NewWindow(time.Minute, 16)
	a := NewWindow(time.Minute, 16)
	b := NewWindow(time.Minute, 16)
	at := t0
	for i := range 500 {
		union.Add(at, 1)
		if i%3 == 0 {
			a.Add(at, 1)
		} else {
			b.Add(at, 1)
		}
		at = at.Add(271 * time.Millisecond)
	}
	if !a.Merge(b) {
		t.Fatal("merge failed")
	}
	for probe := 0; probe < 90; probe += 7 {
		now := at.Add(time.Duration(probe) * time.Second)
		if got, want := a.Count(now), union.Count(now); got != want {
			t.Fatalf("probe +%ds: merged count %d, union count %d", probe, got, want)
		}
	}
}

// referenceWindow is the ring without head and total: Add writes the slot
// the same way, and every read scans the whole ring. Window must answer
// exactly as it does.
type referenceWindow struct {
	width   time.Duration
	buckets int
	counts  []uint32
	nums    []int64
}

func newReferenceWindow(window time.Duration, buckets int) *referenceWindow {
	return &referenceWindow{
		width:   bucketWidth(window, buckets),
		buckets: buckets,
		counts:  make([]uint32, buckets),
		nums:    make([]int64, buckets),
	}
}

func (w *referenceWindow) Add(now time.Time, n int) {
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

func (w *referenceWindow) Count(now time.Time) int {
	return referenceScan(w.counts, w.nums, bucketIndex(now, w.width))
}

func (w *referenceWindow) Empty(now time.Time) bool {
	num := bucketIndex(now, w.width)
	oldest := num - int64(w.buckets) + 1
	for i, c := range w.counts {
		if c != 0 && w.nums[i] >= oldest && w.nums[i] <= num {
			return false
		}
	}
	return true
}

func (w *referenceWindow) Merge(o *referenceWindow) {
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
}

func (w *referenceWindow) Reset() {
	clear(w.counts)
	clear(w.nums)
}

func (w *referenceWindow) clone() *referenceWindow {
	return &referenceWindow{width: w.width, buckets: w.buckets,
		counts: slices.Clone(w.counts), nums: slices.Clone(w.nums)}
}

// referenceScan is the full-ring count at bucket num: every slot holding
// events of a bucket in [num-len+1, num].
func referenceScan(counts []uint32, nums []int64, num int64) int {
	oldest := num - int64(len(counts)) + 1
	total := 0
	for i, c := range counts {
		if c != 0 && nums[i] >= oldest && nums[i] <= num {
			total += int(c)
		}
	}
	return total
}

// TestWindowMatchesReference drives rings of random geometry and their
// reference twins through the same random Add/Count/Empty/Merge/Reset/
// Clone stream, plus the fused admit and addCount against their two-call
// forms — fresh and slab-carved rings, a clock that moves forward,
// stalls, steps back and jumps past the span, and now and then a merge of
// a ring whose slots sit at the wrong index, as corrupt gossip decodes —
// and requires every read and every slot to agree. Each windowMutants row
// breaks one step of Window the way a plausible edit would, and the same
// comparison must catch it: a row that passes is a blind spot.
func TestWindowMatchesReference(t *testing.T) {
	const seeds = 24
	for seed := uint64(1); seed <= seeds; seed++ {
		if err := runWindowModel(seed, windowMutant{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for _, m := range windowMutants {
		caught := false
		for seed := uint64(1); seed <= seeds && !caught; seed++ {
			caught = runWindowModel(seed, m) != nil
		}
		if !caught {
			t.Errorf("mutant %q matches the reference on every seed", m.name)
		}
	}
}

// windowMutant overrides one step of Window inside runWindowModel; the
// zero value overrides nothing.
type windowMutant struct {
	name string
	// countAt, when set, answers the model's Count and Empty reads.
	countAt func(w *Window, num int64) int
	// afterMerge, when set, runs on the receiver after every Merge.
	afterMerge func(w *Window)
}

// windowMutants are the edits the reference comparison must reject.
var windowMutants = []windowMutant{
	{
		// countAt without its num < head case: a read before head falls
		// through to countAhead, which answers 0.
		name:    "step-back fallback dropped",
		countAt: func(w *Window, num int64) int { return w.countAhead(num) },
	},
	{
		// recountAt without its alignment check: a merged ring whose slots
		// are not at their bucket's index keeps the running total instead
		// of pinning itself to scan mode.
		name: "merge alignment check dropped",
		afterMerge: func(w *Window) {
			head := int64(0)
			for i, c := range w.counts {
				if c != 0 {
					head = max(head, w.nums[i])
				}
			}
			w.head, w.total = head, referenceScan(w.counts, w.nums, head)
		},
	},
}

// runWindowModel is one seed of TestWindowMatchesReference under the
// given mutant, returning the first divergence from the reference.
func runWindowModel(seed uint64, mut windowMutant) error {
	const ops, rings = 20000, 4
	rng := simrand.New(seed)
	buckets := 1 + rng.Intn(40)
	span := time.Duration(1+rng.Intn(120)) * time.Second
	ws := make([]*Window, rings)
	refs := make([]*referenceWindow, rings)
	slab := windowSlab{width: bucketWidth(span, buckets), buckets: buckets}
	for i := range ws {
		if i%2 == 0 {
			ws[i] = NewWindow(span, buckets)
		} else {
			slab.reserve(1)
			ws[i] = slab.next()
		}
		refs[i] = newReferenceWindow(span, buckets)
	}
	count := func(w *Window, now time.Time) int {
		if mut.countAt != nil {
			return mut.countAt(w, bucketIndex(now, w.width))
		}
		return w.Count(now)
	}
	empty := func(w *Window, now time.Time) bool {
		if mut.countAt != nil {
			return count(w, now) == 0
		}
		return w.Empty(now)
	}
	merge := func(w, o *Window) {
		w.Merge(o)
		if mut.afterMerge != nil {
			mut.afterMerge(w)
		}
	}
	now := t0
	for op := range ops {
		switch r := rng.Intn(100); {
		case r < 50: // forward within a few buckets
			now = now.Add(time.Duration(rng.Int63() % int64(span/4+1)))
		case r < 60: // stall
		case r < 70: // step back, up to a span and a half
			now = now.Add(-time.Duration(rng.Int63() % int64(span*3/2+1)))
		case r < 75: // jump past the span
			now = now.Add(span + time.Duration(rng.Int63()%int64(3*span)))
		}
		i := rng.Intn(rings)
		w, ref := ws[i], refs[i]
		switch r := rng.Intn(100); {
		case r < 45:
			n := 1 + rng.Intn(3)
			switch rng.Intn(200) {
			case 0:
				n = 0
			case 1:
				n = 1<<32 - 1 - rng.Intn(4) // wraps the slot
			}
			w.Add(now, n)
			ref.Add(now, n)
		case r < 55:
			// The limiter's read-then-write, against its two-call form.
			limit := rng.Intn(12)
			want := ref.Count(now) < limit
			if want {
				ref.Add(now, 1)
			}
			if got := w.admit(now, limit); got != want {
				return fmt.Errorf("op %d ring %d: admit(%d) = %v, reference %v", op, i, limit, got, want)
			}
		case r < 60:
			// The engine's write-then-read.
			ref.Add(now, 1)
			if got, want := w.addCount(now), ref.Count(now); got != want {
				return fmt.Errorf("op %d ring %d: addCount %d, reference %d", op, i, got, want)
			}
		case r < 85:
			if got, want := count(w, now), ref.Count(now); got != want {
				return fmt.Errorf("op %d ring %d: Count %d, reference %d", op, i, got, want)
			}
		case r < 93:
			if got, want := empty(w, now), ref.Empty(now); got != want {
				return fmt.Errorf("op %d ring %d: Empty %v, reference %v", op, i, got, want)
			}
		case r < 97:
			if rng.Intn(16) == 0 {
				o, oref := misalignedRing(rng, w, bucketIndex(now, w.width))
				merge(w, o)
				ref.Merge(oref)
			} else if j := rng.Intn(rings); j != i {
				merge(w, ws[j])
				ref.Merge(refs[j])
			}
		case r < 98:
			w.Reset()
			ref.Reset()
		default:
			// Replace the ring by a copy: a heap clone or a slab clone.
			if rng.Intn(2) == 0 {
				ws[i] = w.Clone()
			} else {
				slab.reserve(1)
				ws[i] = slab.clone(w)
			}
			refs[i] = ref.clone()
		}
		if !slices.Equal(ws[i].counts, refs[i].counts) || !slices.Equal(ws[i].nums, refs[i].nums) {
			return fmt.Errorf("op %d ring %d: slots diverge from the reference", op, i)
		}
		if op%499 == 0 {
			if err := windowProbes(ws[i]); err != nil {
				return fmt.Errorf("op %d ring %d: %w", op, i, err)
			}
		}
	}
	for i, w := range ws {
		if err := windowProbes(w); err != nil {
			return fmt.Errorf("ring %d: %w", i, err)
		}
		if got, want := count(w, now), refs[i].Count(now); got != want {
			return fmt.Errorf("ring %d: final Count %d, reference %d", i, got, want)
		}
	}
	return nil
}

// misalignedRing builds a ring of w's geometry holding a few events of
// buckets in the span ending at num, filed at random slots rather than
// their own — what DecodeState makes of corrupt gossip — and its twin.
func misalignedRing(rng *simrand.RNG, w *Window, num int64) (*Window, *referenceWindow) {
	o := &Window{width: w.width, buckets: w.buckets,
		counts: make([]uint32, w.buckets), nums: make([]int64, w.buckets)}
	for range 3 {
		slot := rng.Intn(w.buckets)
		o.nums[slot] = num - int64(rng.Intn(w.buckets))
		o.counts[slot] = uint32(1 + rng.Intn(3))
	}
	return o, &referenceWindow{width: o.width, buckets: o.buckets,
		counts: slices.Clone(o.counts), nums: slices.Clone(o.nums)}
}

// checkWindowProbes requires w's reads to equal the full-ring scan of its
// own slots at head, either side of it and one span back, and around every
// occupied slot's bucket: one before it, at it, the last bucket whose span
// still holds it, and the first whose span no longer does. (A decoded ring
// pins head at math.MaxInt64; its newest slot's bucket stands in for head.)
// Buckets an instant can name are probed through Count and Empty as well.
// A probe costs up to a scan of the ring, so huge decoded rings get fewer
// per-slot probes.
func checkWindowProbes(t *testing.T, w *Window) {
	t.Helper()
	if err := windowProbes(w); err != nil {
		t.Fatal(err)
	}
}

// windowProbes is checkWindowProbes returning the first mismatch.
func windowProbes(w *Window) error {
	b := int64(w.buckets)
	probes := []int64{w.head, w.head + 1, w.head - 1, w.head - b}
	budget := max(3, 1<<16/w.buckets)
	for i, num := range w.nums {
		if len(probes) >= budget {
			break
		}
		if w.counts[i] != 0 {
			probes = append(probes, num-1, num, num+b-1, num+b)
		}
	}
	width := int64(w.width)
	for _, num := range probes {
		want := referenceScan(w.counts, w.nums, num)
		if got := w.countAt(num); got != want {
			return fmt.Errorf("count at bucket %d (head %d, %d buckets): %d, full scan %d", num, w.head, w.buckets, got, want)
		}
		if num < math.MinInt64/width || num > math.MaxInt64/width {
			continue
		}
		at := time.Unix(0, num*width)
		if got := w.Count(at); got != want {
			return fmt.Errorf("Count at bucket %d (head %d): %d, full scan %d", num, w.head, got, want)
		}
		if got := w.Empty(at); got != (want == 0) {
			return fmt.Errorf("Empty at bucket %d (head %d): %v, full scan %d", num, w.head, got, want)
		}
	}
	return nil
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
