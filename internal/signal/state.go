package signal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

	"funabuse/internal/wire"
)

// State is a dimension-level snapshot of an Engine's mergeable signals,
// folded across shards and freed of shard structure: per-key window
// rings, per-key distinct counters, and one count-min sketch, heavy-hitter
// table and surge detector for the whole dimension (each nil when the
// engine disables it). Its Encode form is FAS1, the format a gate fleet
// replicates, but no node builds a State: each publishes its windows-only
// engine with Engine.AppendWindows, straight from the shards, and peers
// index those bytes with DecodeRates, keep the latest view per node and
// sum Rate over them at query time, which answers exactly what a merge
// would as long as no ring holds a bucket later than the instant asked
// about. Engine.State, Encode, DecodeState and Merge remain for the
// benchmark's codec probes.
//
// The per-key rings and counters of a snapshot or a decode are carved from
// slabs the state owns, and decoded keys are views of shared chunks; a
// state is meant to be dropped whole, and whatever outlives it (a key or
// ring adopted by Merge) keeps its chunk alive.
//
// State is not safe for concurrent use.
type State struct {
	window    time.Duration
	buckets   int
	precision uint8 // 0 when distinct counting is disabled
	observed  uint64
	windows   map[string]*Window
	distinct  map[string]*Distinct // nil when disabled
	sketch    *CountMin            // nil when disabled
	topk      *TopK                // nil when disabled
	surge     *SurgeDetector       // nil when disabled
}

// State snapshots the engine's mergeable signals into a shard-free State:
// per-key structures are deep-copied, and the per-shard sketch, top-K
// table and surge detector are folded into one of each. Each shard is
// copied under its own lock, so the snapshot is consistent per shard and
// exact when the engine is quiesced.
//
// The folded top-K table keeps the engine's configured k across the whole
// dimension, so its estimates carry the usual mergeable-summaries error
// bounds rather than per-shard exactness.
func (e *Engine) State() *State {
	// Size the maps and slabs for the whole dimension up front, a distinct
	// counter for every key when the signal is on. A shard that gained keys
	// since the count just reserves again under its lock.
	nWindows := 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		nWindows += s.keys.Len()
		s.mu.Unlock()
	}
	st := &State{
		window:   e.cfg.Window,
		buckets:  DefaultWindowBuckets,
		observed: e.observed.Load(),
		windows:  make(map[string]*Window, nWindows),
	}
	rings := windowSlab{width: bucketWidth(e.cfg.Window, DefaultWindowBuckets), buckets: DefaultWindowBuckets}
	rings.reserve(nWindows)
	var counters distinctSlab
	if e.cfg.DistinctPrecision > 0 {
		st.precision = e.cfg.DistinctPrecision
		st.distinct = make(map[string]*Distinct, nWindows)
		counters.p = clampPrecision(e.cfg.DistinctPrecision)
		counters.reserve(nWindows)
	}
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		rings.reserve(s.keys.Len())
		if st.distinct != nil {
			counters.reserve(s.keys.Len())
		}
		// The shard's keys are copied into one chunk, each a view of it:
		// the chunk is sized exactly, so appending never moves it.
		size := 0
		for slot := range int32(s.keys.Slots()) {
			if s.keys.Used(slot) {
				size += len(s.keys.At(slot).key)
			}
		}
		chunk := make([]byte, 0, size)
		for slot := range int32(s.keys.Slots()) {
			if !s.keys.Used(slot) {
				continue
			}
			k := s.keys.At(slot)
			chunk = append(chunk, k.key...)
			name := unsafe.String(unsafe.SliceData(chunk[len(chunk)-len(k.key):]), len(k.key))
			st.windows[name] = rings.clone(&k.w)
			if k.d != nil && st.distinct != nil {
				st.distinct[name] = counters.clone(k.d)
			}
		}
		if s.sketch != nil {
			if st.sketch == nil {
				st.sketch = s.sketch.Clone()
			} else {
				st.sketch.Merge(s.sketch)
			}
		}
		if s.topk != nil {
			if st.topk == nil {
				st.topk = s.topk.Clone()
			} else {
				st.topk.Merge(s.topk)
			}
		}
		if s.surge != nil {
			if st.surge == nil {
				st.surge = s.surge.Clone()
			} else {
				st.surge.Merge(s.surge)
			}
		}
		s.mu.Unlock()
	}
	return st
}

// AppendWindows appends the engine's per-key windows to dst as a
// windows-only FAS1 frame — what a fleet node publishes: DecodeRates and
// DecodeState read it, and its distinct, sketch, top-K and surge sections
// are empty — and returns the extended slice. It writes straight from the
// shards, one at a time under its own lock, copying no ring and sorting no
// key: keys go in slot order, each key's occupied slots in index order
// (DecodeRates' fast path needs that), and the header with the key count
// is put in front once the count is known. A quiesced engine's frame
// depends only on its history of operations, so two publishes of it are
// byte-equal. Writing into a buffer kept across calls allocates nothing
// once the buffer has reached the frame's size.
func (e *Engine) AppendWindows(dst []byte) []byte {
	start, keys := len(dst), 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		for slot := range int32(s.keys.Slots()) {
			if s.keys.Used(slot) {
				k := s.keys.At(slot)
				dst = appendWindow(dst, k.key, &k.w)
				keys++
			}
		}
		s.mu.Unlock()
	}
	var buf [len(stateMagic) + 4*binary.MaxVarintLen64]byte
	head := appendHeader(buf[:0], e.cfg.Window, DefaultWindowBuckets, e.observed.Load(), keys)
	dst = append(dst, head...) // room for the header; the entries move up
	copy(dst[start+len(head):], dst[start:len(dst)-len(head)])
	copy(dst[start:], head)
	return append(dst, 0, 0, 0, 0) // no distinct, sketch, top-K or surge
}

// Merge folds another snapshot of identical dimensions into this one; the
// other snapshot is only read. It reports whether every dimension matched
// (window geometry, enabled signal set, sketch shape, top-K capacity,
// distinct precision, surge anchoring); on mismatch the receiver is left
// untouched. Merge is additive: folding the same snapshot in twice
// double-counts.
//
// No fleet path merges states. Merge and the per-sketch Merge methods
// stay for the benchmark's signal.state_merge_us probe and go with it.
func (s *State) Merge(o *State) bool {
	if o == nil || o == s || o.window != s.window || o.buckets != s.buckets {
		return false
	}
	if (s.sketch == nil) != (o.sketch == nil) ||
		(s.topk == nil) != (o.topk == nil) ||
		(s.surge == nil) != (o.surge == nil) ||
		(s.distinct == nil) != (o.distinct == nil) {
		return false
	}
	if s.sketch != nil && (s.sketch.width != o.sketch.width || s.sketch.depth != o.sketch.depth) {
		return false
	}
	if s.topk != nil && s.topk.k != o.topk.k {
		return false
	}
	if s.surge != nil && (!s.surge.start.Equal(o.surge.start) || s.surge.period != o.surge.period) {
		return false
	}
	if s.distinct != nil && s.precision != o.precision {
		return false
	}
	for k, ow := range o.windows {
		if w, ok := s.windows[k]; ok {
			w.Merge(ow)
		} else {
			s.windows[k] = ow.Clone()
		}
	}
	if s.distinct != nil {
		for k, od := range o.distinct {
			if d, ok := s.distinct[k]; ok {
				d.Merge(od)
			} else {
				s.distinct[k] = od.Clone()
			}
		}
	}
	if s.sketch != nil {
		s.sketch.Merge(o.sketch)
	}
	if s.topk != nil {
		s.topk.Merge(o.topk)
	}
	if s.surge != nil {
		s.surge.Merge(o.surge)
	}
	s.observed += o.observed
	return true
}

// Observed returns how many events the snapshotted engine had ingested.
func (s *State) Observed() uint64 { return s.observed }

// Keys returns how many keys hold per-key window state.
func (s *State) Keys() int { return len(s.windows) }

// Rate returns key's in-window event count as of now (0 for unseen keys).
func (s *State) Rate(key string, now time.Time) int {
	w, ok := s.windows[key]
	if !ok {
		return 0
	}
	return w.Count(now)
}

// Freq returns the count-min estimate of key's lifetime frequency, or 0
// with the sketch disabled.
func (s *State) Freq(key string) uint64 {
	if s.sketch == nil {
		return 0
	}
	return s.sketch.Count(key)
}

// Distinct returns the estimated number of distinct attributes observed
// for key (0 for unseen keys or with the signal disabled).
func (s *State) Distinct(key string) float64 {
	d, ok := s.distinct[key]
	if !ok {
		return 0
	}
	return d.Estimate()
}

// Top returns the n heaviest keys (n <= 0 for all tracked), or nil with
// the signal disabled.
func (s *State) Top(n int) []TopEntry {
	if s.topk == nil {
		return nil
	}
	return s.topk.Top(n)
}

// Surges returns the n largest baseline-relative surges as of now (n <= 0
// for all), advancing the snapshot's detector to now first; nil with the
// signal disabled.
func (s *State) Surges(n int, now time.Time) []KeySurge {
	if s.surge == nil {
		return nil
	}
	s.surge.Advance(now)
	return s.surge.Top(n)
}

// stateMagic opens every encoded State: "functional-abuse signals",
// format version 1.
const stateMagic = "FAS1"

// Encode serializes the snapshot into the compact wire form DecodeState
// reads: varint-packed, sparse (only non-zero window slots and distinct
// registers travel), with all map keys in sorted order so encoding is a
// pure function of the snapshot's logical content — byte-identical
// encodings mean identical states, which the determinism goldens rely on.
//
// The bytes are assembled in a recycled scratch buffer, so the returned
// slice is allocated once, at the size it needs.
func (s *State) Encode() []byte {
	scratch := encodeScratch.Get().(*[]byte)
	*scratch = s.appendTo((*scratch)[:0])
	b := bytes.Clone(*scratch)
	encodeScratch.Put(scratch)
	return b
}

var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// appendTo appends the wire form to b.
func (s *State) appendTo(b []byte) []byte {
	keys := sortedKeys(s.windows)
	b = appendHeader(b, s.window, s.buckets, s.observed, len(keys))
	for _, k := range keys {
		b = appendWindow(b, bytesOf(k), s.windows[k])
	}

	// Per-key distinct counters, sparse registers.
	if s.distinct == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1, s.precision)
		keys = sortedKeys(s.distinct)
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			d := s.distinct[k]
			b = wire.AppendString(b, k)
			used := 0
			for _, r := range d.regs {
				if r != 0 {
					used++
				}
			}
			b = binary.AppendUvarint(b, uint64(used))
			for i, r := range d.regs {
				if r == 0 {
					continue
				}
				b = binary.AppendUvarint(b, uint64(i))
				b = append(b, r)
			}
		}
	}

	// Count-min sketch, dense row-major (small counts varint-pack well).
	if s.sketch == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(s.sketch.width))
		b = binary.AppendUvarint(b, uint64(s.sketch.depth))
		b = binary.AppendUvarint(b, s.sketch.total)
		for _, row := range s.sketch.rows {
			for _, v := range row {
				b = binary.AppendUvarint(b, v)
			}
		}
	}

	// Top-K entries in canonical rank order.
	if s.topk == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(s.topk.k))
		entries := s.topk.Top(0)
		b = binary.AppendUvarint(b, uint64(len(entries)))
		for _, e := range entries {
			b = wire.AppendString(b, e.Key)
			b = binary.AppendUvarint(b, e.Count)
			b = binary.AppendUvarint(b, e.Err)
		}
	}

	// Surge detector: anchor, period, current period index, both maps.
	if s.surge == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendVarint(b, s.surge.start.UnixNano())
		b = binary.AppendUvarint(b, uint64(s.surge.period))
		b = binary.AppendVarint(b, s.surge.curIdx)
		b = appendCountMap(b, s.surge.cur)
		b = appendCountMap(b, s.surge.prev)
	}
	return b
}

// appendHeader appends a FAS1 frame's header: magic, window geometry, the
// observation total and the count of the per-key window entries that
// follow.
func appendHeader(b []byte, window time.Duration, buckets int, observed uint64, keys int) []byte {
	b = append(b, stateMagic...)
	b = binary.AppendUvarint(b, uint64(window))
	b = binary.AppendUvarint(b, uint64(buckets))
	b = binary.AppendUvarint(b, observed)
	return binary.AppendUvarint(b, uint64(keys))
}

// appendWindow appends one key's entry of a FAS1 window section, the one
// writer AppendWindows and Encode share: the length-prefixed key, then the
// ring's occupied slots in index order, each as slot, bucket and count.
// Only slots holding events travel.
func appendWindow(b, key []byte, w *Window) []byte {
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	used := 0
	for _, c := range w.counts {
		if c != 0 {
			used++
		}
	}
	b = binary.AppendUvarint(b, uint64(used))
	for i, c := range w.counts {
		if c == 0 {
			continue
		}
		b = binary.AppendUvarint(b, uint64(i))
		b = binary.AppendVarint(b, w.nums[i])
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}

// Decode-side allocation budgets. Every collection length in the wire form
// is already bounded by the bytes remaining, but geometry fields (window
// buckets, distinct precision) multiply: a small corrupt buffer could
// otherwise claim maximal geometry for many keys and force hundreds of
// megabytes of allocation before the inevitable truncation error surfaced.
// The budgets cap what one decode may allocate regardless of claimed
// geometry; legitimate encodings sit orders of magnitude below them.
const (
	maxDecodeWindowSlots  = 1 << 22
	maxDecodeDistinctRegs = 1 << 24
)

// Decode-side slab chunks. Per-key structures are carved from slabs that
// grow a chunk at a time as keys are actually parsed — never sized from a
// claimed key count — and a chunk holds no more keys than the unread bytes
// could still spell, so a short corrupt buffer allocates no more than the
// same number of well-formed keys would. The chunks are sized to take a
// fleet node's ~500-key state in one piece each.
const (
	slabWindowSlots  = 1 << 14
	slabDistinctRegs = 1 << 17
	slabKeyBytes     = 1 << 13
)

var errDecodeBudget = errors.New("signal: state decode allocation budget exceeded")

// DecodeState parses an Encode-produced buffer back into a State.
func DecodeState(b []byte) (*State, error) {
	return decodeState(b, nil)
}

// Rates is a read-only view of the per-key windows in one FAS1 payload,
// for a reader that asks nothing but Rate — a fleet node summing its
// peers' rates. It indexes each key to its sparse slot list inside the
// payload and parses that list on each read, so it costs one map entry per
// key where a decoded State costs a ring, and its keys alias the payload:
// the bytes must not change while the view is in use.
//
// Rates is safe for concurrent use: every read is a pure read.
type Rates struct {
	b       []byte
	width   time.Duration
	buckets int
	lists   map[string]rateList
}

// rateList locates one key's window: the offset of its slot list in the
// payload when the list's slot indices strictly increase, as appendWindow
// writes them, and otherwise — a slot written twice or out of order, which
// only corrupt gossip holds — the ring DecodeState builds from it, so a
// read costs O(buckets) whatever the list claims.
type rateList struct {
	off  int
	ring *Window
}

// DecodeRates indexes a FAS1 buffer (a node's AppendWindows frame or an
// Encode form) for Rate reads. It accepts exactly the buffers DecodeState
// accepts — the two share one walk — and keeps b, which the caller must
// not modify afterwards.
func DecodeRates(b []byte) (*Rates, error) {
	rs := &Rates{b: b}
	if _, err := decodeState(b, rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// Rate returns key's in-window event count as of now (0 for unseen keys):
// exactly what State.Rate answers for the DecodeState of the same bytes.
// The key is read in place, so a caller that assembles it in a byte buffer
// looks it up without allocating.
func (rs *Rates) Rate(key []byte, now time.Time) int {
	return rs.rateAt(key, bucketIndex(now, rs.width))
}

// rateAt is Rate at bucket num: Window.scan over the key's slot list. A
// decoded ring reads by scanning too (see scanOnly), and in a list whose
// slot indices strictly increase each slot below buckets holds its one
// entry, so summing the entries is summing the ring.
func (rs *Rates) rateAt(key []byte, num int64) int {
	l, ok := rs.lists[string(key)]
	if !ok {
		return 0
	}
	if l.ring != nil {
		return l.ring.countAt(num)
	}
	oldest := num - int64(rs.buckets) + 1
	b := rs.b[l.off:]
	used, n := binary.Uvarint(b)
	b = b[n:]
	total := 0
	for range used {
		slot, n := binary.Uvarint(b)
		b = b[n:]
		bucket, n := binary.Varint(b)
		b = b[n:]
		c, n := binary.Uvarint(b)
		b = b[n:]
		if slot < uint64(rs.buckets) && uint32(c) != 0 && bucket >= oldest && bucket <= num {
			total += int(uint32(c))
		}
	}
	return total
}

// decodeState is the one FAS1 parser. With rates nil it builds the State's
// rings; otherwise it indexes each key's slot list into rates instead,
// with keys viewing b, and the State it returns holds no windows.
func decodeState(b []byte, rates *Rates) (*State, error) {
	if len(b) < len(stateMagic) || string(b[:len(stateMagic)]) != stateMagic {
		return nil, errors.New("signal: bad state magic")
	}
	r := &stateReader{Reader: wire.NewReader(b, len(stateMagic), errTruncated), view: rates != nil}
	st := &State{
		window:  time.Duration(r.Uvarint()),
		buckets: int(r.Uvarint()),
	}
	st.observed = r.Uvarint()
	if st.window <= 0 || st.buckets <= 0 || st.buckets > 1<<20 {
		return nil, errors.New("signal: bad state window geometry")
	}

	nWindows := r.Count()
	if nWindows*st.buckets > maxDecodeWindowSlots {
		return nil, errDecodeBudget
	}
	rings := windowSlab{width: bucketWidth(st.window, st.buckets), buckets: st.buckets}
	if rates != nil {
		rates.width, rates.buckets = rings.width, st.buckets
		rates.lists = make(map[string]rateList, nWindows)
	} else {
		st.windows = make(map[string]*Window, nWindows)
	}
	for i := range nWindows {
		key := r.key()
		if rates != nil {
			off := r.Off
			if r.sortedSlots(st.buckets) {
				rates.lists[key] = rateList{off: off}
				continue
			}
			if r.Err != nil {
				return nil, r.Err
			}
			r.Off = off // build the ring below
		}
		if len(rings.rings) == 0 {
			rings.reserve(r.chunk(nWindows-i, slabWindowSlots/st.buckets))
		}
		w := rings.next()
		used := r.Count()
		newest := int64(0) // no earlier than any occupied slot's bucket
		for range used {
			slot := r.Uvarint()
			num := r.Varint()
			c := r.Uvarint()
			if r.Err == nil && slot < uint64(len(w.counts)) {
				w.counts[slot] = uint32(c)
				w.nums[slot] = num
				if uint32(c) != 0 {
					newest = max(newest, num)
				}
			}
		}
		if r.Err != nil {
			return nil, r.Err
		}
		// A decoded ring is only ever read, and replaced by the next gossip
		// round: it scans on read rather than recounting every slot here.
		w.scanOnly(newest)
		if rates != nil {
			rates.lists[key] = rateList{ring: w}
		} else {
			st.windows[key] = w
		}
	}

	if r.Byte() == 1 {
		st.precision = r.Byte()
		if st.precision < 4 || st.precision > 16 {
			return nil, errors.New("signal: bad distinct precision")
		}
		nDistinct := r.Count()
		if nDistinct<<st.precision > maxDecodeDistinctRegs {
			return nil, errDecodeBudget
		}
		st.distinct = make(map[string]*Distinct, nDistinct)
		counters := distinctSlab{p: st.precision}
		for i := range nDistinct {
			key := r.key()
			if len(counters.counters) == 0 {
				counters.reserve(r.chunk(nDistinct-i, slabDistinctRegs>>st.precision))
			}
			d := counters.next()
			used := r.Count()
			for range used {
				idx := r.Uvarint()
				val := r.Byte()
				if r.Err == nil && idx < uint64(len(d.regs)) {
					d.regs[idx] = val
				}
			}
			if r.Err != nil {
				return nil, r.Err
			}
			st.distinct[key] = d
		}
	}

	if r.Byte() == 1 {
		width := int(r.Uvarint())
		depth := int(r.Uvarint())
		// Bound each dimension before multiplying: the product of two
		// attacker-supplied ints can overflow past the shape check.
		if r.Err != nil || width <= 0 || depth <= 0 ||
			width > 1<<26 || depth > 1<<26 || width*depth > 1<<26 {
			return nil, errors.New("signal: bad sketch shape")
		}
		// Every sketch cell costs at least one wire byte, so a shape the
		// remaining bytes cannot back is corrupt — reject it before the
		// rows are allocated.
		if width*depth > r.Left() {
			return nil, errDecodeBudget
		}
		cm := NewCountMin(width, depth)
		cm.total = r.Uvarint()
		for i := range cm.rows {
			for j := range cm.rows[i] {
				cm.rows[i][j] = r.Uvarint()
			}
		}
		if r.Err != nil {
			return nil, r.Err
		}
		st.sketch = cm
	}

	if r.Byte() == 1 {
		k := int(r.Uvarint())
		if r.Err != nil || k < 1 || k > 1<<20 {
			return nil, errors.New("signal: bad topk capacity")
		}
		n := r.Count()
		entries := make([]TopEntry, 0, n)
		for range n {
			key := r.key()
			count := r.Uvarint()
			errBound := r.Uvarint()
			entries = append(entries, TopEntry{Key: key, Count: count, Err: errBound})
		}
		if r.Err != nil {
			return nil, r.Err
		}
		if len(entries) > k {
			return nil, errors.New("signal: topk entries exceed capacity")
		}
		// Construct directly rather than via NewTopK: k is semantic
		// capacity and must not size an allocation — rebuild sizes the
		// table by the wire-backed entries that actually exist.
		tk := &TopK{k: k}
		tk.rebuild(entries)
		st.topk = tk
	}

	if r.Byte() == 1 {
		start := time.Unix(0, r.Varint()).UTC()
		period := time.Duration(r.Uvarint())
		curIdx := r.Varint()
		if r.Err != nil || period <= 0 {
			return nil, errors.New("signal: bad surge header")
		}
		sd := &SurgeDetector{start: start, period: period, curIdx: curIdx}
		if sd.cur = readCountMap(r); r.Err != nil {
			return nil, r.Err
		}
		if sd.prev = readCountMap(r); r.Err != nil {
			return nil, r.Err
		}
		st.surge = sd
	}

	if r.Err != nil {
		return nil, r.Err
	}
	if r.Off != len(r.B) {
		return nil, fmt.Errorf("signal: %d trailing bytes after state", r.Left())
	}
	return st, nil
}

// stateReader is the shared bounded reader plus FAS1's map keys. keys is
// the chunk map keys are currently copied into; with view set, keys are
// views of B instead.
type stateReader struct {
	wire.Reader
	view bool
	keys strings.Builder
}

var errTruncated = errors.New("signal: truncated state")

// key reads one length-prefixed map key. Keys are copied into shared
// chunks — one allocation per slabKeyBytes of keys rather than one per key
// — that are never larger than the bytes still unread, and each returned
// string is a view of its chunk: a Builder only ever appends, so the bytes
// under a string already handed out never change. With r.view set the key
// is a view of the buffer itself.
func (r *stateReader) key() string {
	n := r.Count()
	if n == 0 {
		return ""
	}
	if r.view {
		k := unsafe.String(&r.B[r.Off], n)
		r.Off += n
		return k
	}
	if r.keys.Cap()-r.keys.Len() < n {
		r.keys = strings.Builder{}
		r.keys.Grow(max(n, min(slabKeyBytes, r.Left())))
	}
	start := r.keys.Len()
	r.keys.Write(r.B[r.Off : r.Off+n])
	r.Off += n
	return r.keys.String()[start:]
}

// sortedSlots reads one window's sparse slot list and reports whether its
// slot indices below buckets strictly increase, as appendWindow writes
// them, and the list read cleanly. Indices at or past buckets name no slot and are
// ignored, as DecodeState ignores them.
func (r *stateReader) sortedSlots(buckets int) bool {
	sorted, next := true, uint64(0)
	for range r.Count() {
		slot := r.Uvarint()
		r.Varint()
		r.Uvarint()
		if slot < uint64(buckets) {
			sorted = sorted && slot >= next
			next = slot + 1
		}
	}
	return sorted && r.Err == nil
}

// chunk sizes the next slab growth: the keys still claimed, capped by the
// slab's chunk and by the bytes left to spell them (a key costs at least
// one), and never less than the one key about to be carved.
func (r *stateReader) chunk(claimed, perChunk int) int {
	return max(1, min(claimed, perChunk, r.Left()))
}

func appendCountMap(b []byte, m map[string]int) []byte {
	keys := sortedKeys(m)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendString(b, k)
		b = binary.AppendVarint(b, int64(m[k]))
	}
	return b
}

// readCountMap reads one surge period's counts; on a malformed map r.Err
// is set and the partial map is the caller's to drop.
func readCountMap(r *stateReader) map[string]int {
	n := r.Count()
	m := make(map[string]int, n)
	for range n {
		key := r.key()
		v := r.Varint()
		if r.Err != nil {
			break
		}
		m[key] = int(v)
	}
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
