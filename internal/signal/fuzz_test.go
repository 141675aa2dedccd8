package signal

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"funabuse/internal/wire"
)

// FuzzDecodeState hammers the FAS1 decoder with corrupt gossip: whatever
// the bytes, DecodeState must return an error or a usable state, never
// panic or allocate unboundedly. Anything that decodes must survive the
// encode→decode round a receiving node performs when it re-publishes.
func FuzzDecodeState(f *testing.F) {
	for _, b := range stateSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := DecodeState(b)
		if err != nil {
			return
		}
		// Every decoded ring answers exactly as a full scan of its slots.
		for _, w := range st.windows {
			checkWindowProbes(t, w)
		}
		// A decoded state must be mergeable with itself via a re-decoded
		// copy and re-encodable without panicking.
		enc := st.Encode()
		again, err := DecodeState(enc)
		if err != nil {
			t.Fatalf("re-decode of decoded state failed: %v", err)
		}
		st.Merge(again)
		for _, w := range st.windows {
			checkWindowProbes(t, w)
		}
		_ = st.Encode()
	})
}

// stateSeeds is the FAS1 decoders' seed corpus beyond testdata: full and
// empty states, truncated headers, and hand-built rings a well-formed
// encoder never writes — a slot index repeated, zero counts, buckets that
// do not sit at their own slot (in and out of slot order), and bucket
// numbers far apart, down to both ends of int64.
func stateSeeds() [][]byte {
	eng := NewEngine(stateTestConfig())
	feedEngine(eng, -1)
	return [][]byte{
		eng.State().Encode(),
		NewEngine(stateTestConfig()).State().Encode(),
		[]byte("FAS1"),
		[]byte("FAS1\x01\x01\xff\xff\xff\xff"),
		nil,
		rawWindowState(4, [][3]int64{{1, 5, 2}, {1, 100, 3}, {1, 37, 0}, {2, 98, 1}}),
		rawWindowState(4, [][3]int64{{0, 7, 4}, {2, 7, 1}, {3, 0, 0}, {1, 6, 2}}),
		rawWindowState(4, [][3]int64{{0, -1 << 62, 1}, {1, 1 << 62, 2}, {2, math.MaxInt64, 3}, {3, math.MinInt64, 4}}),
		rawWindowState(3, [][3]int64{{0, 9, 1}, {1, 10, 1}, {2, -4, 5}}),
		rawWindowState(4, [][3]int64{{0, 7, 4}, {1, 6, 2}, {2, 7, 1}}),
	}
}

// FuzzDecodeRates holds the rate view to the decoder it replaces on a
// fleet node: whatever the bytes, DecodeRates errs exactly when
// DecodeState does, and on success its Rate answers what the decoded
// state's does, for every key and an absent one, from newest−B−1 to
// newest+B+1 buckets. The corpus is FuzzDecodeState's, testdata included,
// plus a windows-only fleet payload, whole, truncated and with a trailing
// byte.
func FuzzDecodeRates(f *testing.F) {
	for _, b := range stateSeeds() {
		f.Add(b)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeState")
	files, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(filepath.Join(dir, file.Name()))
		if err != nil {
			f.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", file.Name(), err)
		}
		f.Add([]byte(b))
	}
	fleet := windowsOnlyPayload(200)
	f.Add(fleet)
	f.Add(fleet[:len(fleet)/2])
	f.Add(fleet[:len(fleet)-1])
	f.Add(append(fleet[:len(fleet):len(fleet)], 0xff))
	f.Add(rawWindowState(0, nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := ratesMismatch(b); err != nil {
			t.Fatal(err)
		}
	})
}

// ratesMismatch decodes b both ways and returns the first disagreement
// between the rate view and the decoded state — an error on one side
// only, different errors, or a different rate — or nil. Every bucket from
// newest−B−1 to newest+B+1 of each key's ring is probed (for rings of at
// most 256 buckets; wider ones at the span edges), and so are the span
// edges of its first 64 occupied slots, with the arithmetic wrapping at
// both ends of int64 exactly as the reads do.
func ratesMismatch(b []byte) error {
	st, serr := DecodeState(b)
	rs, rerr := DecodeRates(b)
	if (serr == nil) != (rerr == nil) || serr != nil && serr.Error() != rerr.Error() {
		return fmt.Errorf("DecodeState error %v, DecodeRates error %v", serr, rerr)
	}
	if serr != nil {
		return nil
	}
	if len(rs.lists) != len(st.windows) {
		return fmt.Errorf("view indexes %d keys, state holds %d", len(rs.lists), len(st.windows))
	}
	const absent = "\x00absent"
	if _, ok := st.windows[absent]; !ok {
		if got := rs.rateAt(absent, 0); got != 0 {
			return fmt.Errorf("absent key rates %d", got)
		}
	}
	for key, w := range st.windows {
		newest, occupied := int64(math.MinInt64), []int64(nil)
		for i, c := range w.counts {
			if c != 0 {
				newest = max(newest, w.nums[i])
				occupied = append(occupied, w.nums[i])
			}
		}
		if occupied == nil {
			newest = 0
		}
		span := int64(w.buckets) + 1
		var offsets []int64
		if w.buckets <= 256 {
			for d := -span; d <= span; d++ {
				offsets = append(offsets, d)
			}
		} else {
			offsets = []int64{-span, -span + 1, -span + 2, -1, 0, 1, span - 2, span - 1, span}
		}
		probes := make([]int64, 0, len(offsets)+4*64)
		for _, d := range offsets {
			probes = append(probes, newest+d)
		}
		for _, num := range occupied[:min(len(occupied), 64)] {
			probes = append(probes, num-1, num, num+span-2, num+span-1)
		}
		for _, num := range probes {
			if got, want := rs.rateAt(key, num), w.countAt(num); got != want {
				return fmt.Errorf("%q at bucket %d (newest %d, %d buckets): view %d, state %d", key, num, newest, w.buckets, got, want)
			}
		}
		// Through the public reads too, at instants the clock can name.
		width := int64(rs.width)
		for _, d := range []int64{-span, 0, span} {
			num := newest + d
			if num < math.MinInt64/width || num > math.MaxInt64/width {
				continue
			}
			at := time.Unix(0, num*width)
			if got, want := rs.Rate(key, at), st.Rate(key, at); got != want {
				return fmt.Errorf("%q Rate at %v: view %d, state %d", key, at, got, want)
			}
		}
	}
	return nil
}

// rawKey is one key of a hand-built FAS1 state: its name and the
// (slot, bucket number, count) entries of its ring, in wire order.
type rawKey struct {
	name  string
	slots [][3]int64
}

// rawWindows encodes a FAS1 state whose key section holds exactly the
// given keys, in order, and no other signal.
func rawWindows(buckets int, keys ...rawKey) []byte {
	b := []byte("FAS1")
	b = binary.AppendUvarint(b, uint64(time.Minute))
	b = binary.AppendUvarint(b, uint64(buckets))
	b = binary.AppendUvarint(b, 0) // observed
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendString(b, k.name)
		b = binary.AppendUvarint(b, uint64(len(k.slots)))
		for _, s := range k.slots {
			b = binary.AppendUvarint(b, uint64(s[0]))
			b = binary.AppendVarint(b, s[1])
			b = binary.AppendUvarint(b, uint64(s[2]))
		}
	}
	return append(b, 0, 0, 0, 0) // no distinct, sketch, top-K or surge
}

// rawWindowState encodes a one-key FAS1 state whose ring holds exactly the
// given (slot, bucket number, count) entries, in order, and no other signal.
func rawWindowState(buckets int, slots [][3]int64) []byte {
	return rawWindows(buckets, rawKey{"fp:raw", slots})
}

// TestDecodeStateBoundsAllocation pins the decode-side allocation budgets:
// a few hundred corrupt bytes claiming maximal geometry must be rejected
// cheaply, not turned into hundreds of megabytes of window allocations.
func TestDecodeStateBoundsAllocation(t *testing.T) {
	b := []byte("FAS1")
	b = binary.AppendUvarint(b, uint64(time.Minute)) // window
	b = binary.AppendUvarint(b, 1<<20)               // buckets: max allowed
	b = binary.AppendUvarint(b, 0)                   // observed
	b = binary.AppendUvarint(b, 200)                 // 200 claimed window keys
	for i := range 200 {
		b = binary.AppendUvarint(b, 1)
		b = append(b, byte('a'+i%26))
		b = binary.AppendUvarint(b, 0)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := DecodeState(b); err == nil {
			t.Fatal("amplifying geometry accepted")
		}
	})
	// The exact count is irrelevant; what matters is that the decoder bails
	// on the budget before the per-key window allocations start.
	if allocs > 50 {
		t.Fatalf("rejecting amplifying input cost %v allocations", allocs)
	}
}
