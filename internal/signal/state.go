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
)

// State is a dimension-level snapshot of an Engine's mergeable signals,
// folded across shards and freed of shard structure: per-key window
// rings, per-key distinct counters, and one count-min sketch, heavy-hitter
// table and surge detector for the whole dimension (each nil when the
// engine disables it). It is the unit of replication in a gate fleet —
// each node snapshots its windows-only engine, ships the compact Encode
// form, and peers keep the latest state per node and sum Rate over them
// at query time, which answers exactly what a merge would as long as no
// ring holds a bucket later than the instant asked about.
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
	// Size the maps and slabs for the whole dimension up front. A shard
	// that gained keys since the count just reserves again under its lock.
	var nWindows, nDistinct int
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		nWindows += len(s.windows)
		nDistinct += len(s.distinct)
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
	if !e.cfg.DisableDistinct {
		st.precision = e.cfg.DistinctPrecision
		st.distinct = make(map[string]*Distinct, nDistinct)
		counters.p = clampPrecision(e.cfg.DistinctPrecision)
		counters.reserve(nDistinct)
	}
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		rings.reserve(len(s.windows))
		for k, w := range s.windows {
			st.windows[k] = rings.clone(w)
		}
		counters.reserve(len(s.distinct))
		for k, d := range s.distinct {
			st.distinct[k] = counters.clone(d)
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
	b = append(b, stateMagic...)
	b = binary.AppendUvarint(b, uint64(s.window))
	b = binary.AppendUvarint(b, uint64(s.buckets))
	b = binary.AppendUvarint(b, s.observed)

	// Per-key window rings, sparse: only slots holding events travel.
	keys := sortedKeys(s.windows)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		w := s.windows[k]
		b = appendString(b, k)
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
			b = appendString(b, k)
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
			b = appendString(b, e.Key)
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
	if len(b) < len(stateMagic) || string(b[:len(stateMagic)]) != stateMagic {
		return nil, errors.New("signal: bad state magic")
	}
	r := &stateReader{b: b, off: len(stateMagic)}
	st := &State{
		window:  time.Duration(r.uvarint()),
		buckets: int(r.uvarint()),
	}
	st.observed = r.uvarint()
	if st.window <= 0 || st.buckets <= 0 || st.buckets > 1<<20 {
		return nil, errors.New("signal: bad state window geometry")
	}

	nWindows := r.count()
	if nWindows*st.buckets > maxDecodeWindowSlots {
		return nil, errDecodeBudget
	}
	st.windows = make(map[string]*Window, nWindows)
	rings := windowSlab{width: bucketWidth(st.window, st.buckets), buckets: st.buckets}
	for i := range nWindows {
		key := r.key()
		if len(rings.rings) == 0 {
			rings.reserve(r.chunk(nWindows-i, slabWindowSlots/st.buckets))
		}
		w := rings.next()
		used := r.count()
		newest := int64(0) // no earlier than any occupied slot's bucket
		for range used {
			slot := r.uvarint()
			num := r.varint()
			c := r.uvarint()
			if r.err == nil && slot < uint64(len(w.counts)) {
				w.counts[slot] = uint32(c)
				w.nums[slot] = num
				if uint32(c) != 0 {
					newest = max(newest, num)
				}
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		// A decoded ring is only ever read, and replaced by the next gossip
		// round: it scans on read rather than recounting every slot here.
		w.scanOnly(newest)
		st.windows[key] = w
	}

	if r.byte() == 1 {
		st.precision = r.byte()
		if st.precision < 4 || st.precision > 16 {
			return nil, errors.New("signal: bad distinct precision")
		}
		nDistinct := r.count()
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
			used := r.count()
			for range used {
				idx := r.uvarint()
				val := r.byte()
				if r.err == nil && idx < uint64(len(d.regs)) {
					d.regs[idx] = val
				}
			}
			if r.err != nil {
				return nil, r.err
			}
			st.distinct[key] = d
		}
	}

	if r.byte() == 1 {
		width := int(r.uvarint())
		depth := int(r.uvarint())
		// Bound each dimension before multiplying: the product of two
		// attacker-supplied ints can overflow past the shape check.
		if r.err != nil || width <= 0 || depth <= 0 ||
			width > 1<<26 || depth > 1<<26 || width*depth > 1<<26 {
			return nil, errors.New("signal: bad sketch shape")
		}
		// Every sketch cell costs at least one wire byte, so a shape the
		// remaining bytes cannot back is corrupt — reject it before the
		// rows are allocated.
		if width*depth > len(r.b)-r.off {
			return nil, errDecodeBudget
		}
		cm := NewCountMin(width, depth)
		cm.total = r.uvarint()
		for i := range cm.rows {
			for j := range cm.rows[i] {
				cm.rows[i][j] = r.uvarint()
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		st.sketch = cm
	}

	if r.byte() == 1 {
		k := int(r.uvarint())
		if r.err != nil || k < 1 || k > 1<<20 {
			return nil, errors.New("signal: bad topk capacity")
		}
		n := r.count()
		entries := make([]TopEntry, 0, n)
		for range n {
			key := r.key()
			count := r.uvarint()
			errBound := r.uvarint()
			entries = append(entries, TopEntry{Key: key, Count: count, Err: errBound})
		}
		if r.err != nil {
			return nil, r.err
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

	if r.byte() == 1 {
		start := time.Unix(0, r.varint()).UTC()
		period := time.Duration(r.uvarint())
		curIdx := r.varint()
		if r.err != nil || period <= 0 {
			return nil, errors.New("signal: bad surge header")
		}
		sd := &SurgeDetector{start: start, period: period, curIdx: curIdx}
		if sd.cur = readCountMap(r); r.err != nil {
			return nil, r.err
		}
		if sd.prev = readCountMap(r); r.err != nil {
			return nil, r.err
		}
		st.surge = sd
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("signal: %d trailing bytes after state", len(r.b)-r.off)
	}
	return st, nil
}

// stateReader walks an encoded buffer with a sticky error. keys is the
// chunk map keys are currently copied into.
type stateReader struct {
	b    []byte
	off  int
	err  error
	keys strings.Builder
}

var errTruncated = errors.New("signal: truncated state")

func (r *stateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *stateReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *stateReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.err = errTruncated
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// key reads one length-prefixed map key. Keys are copied into shared
// chunks — one allocation per slabKeyBytes of keys rather than one per key
// — that are never larger than the bytes still unread, and each returned
// string is a view of its chunk: a Builder only ever appends, so the bytes
// under a string already handed out never change.
func (r *stateReader) key() string {
	n := r.count()
	if n == 0 {
		return ""
	}
	if r.keys.Cap()-r.keys.Len() < n {
		r.keys = strings.Builder{}
		r.keys.Grow(max(n, min(slabKeyBytes, len(r.b)-r.off)))
	}
	start := r.keys.Len()
	r.keys.Write(r.b[r.off : r.off+n])
	r.off += n
	return r.keys.String()[start:]
}

// count reads a collection length, bounding it by the bytes remaining so
// corrupt input cannot force huge allocations.
func (r *stateReader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off) {
		r.err = errTruncated
		return 0
	}
	return int(n)
}

// chunk sizes the next slab growth: the keys still claimed, capped by the
// slab's chunk and by the bytes left to spell them (a key costs at least
// one), and never less than the one key about to be carved.
func (r *stateReader) chunk(claimed, perChunk int) int {
	return max(1, min(claimed, perChunk, len(r.b)-r.off))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendCountMap(b []byte, m map[string]int) []byte {
	keys := sortedKeys(m)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = binary.AppendVarint(b, int64(m[k]))
	}
	return b
}

// readCountMap reads one surge period's counts; on a malformed map r.err
// is set and the partial map is the caller's to drop.
func readCountMap(r *stateReader) map[string]int {
	n := r.count()
	m := make(map[string]int, n)
	for range n {
		key := r.key()
		v := r.varint()
		if r.err != nil {
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
