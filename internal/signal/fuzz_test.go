package signal

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// FuzzDecodeState hammers the FAS1 decoder with corrupt gossip: whatever
// the bytes, DecodeState must return an error or a usable state, never
// panic or allocate unboundedly. Anything that decodes must survive the
// encode→decode round a receiving node performs when it re-publishes.
func FuzzDecodeState(f *testing.F) {
	eng := NewEngine(stateTestConfig())
	feedEngine(eng, -1)
	f.Add(eng.State().Encode())
	f.Add(NewEngine(stateTestConfig()).State().Encode())
	f.Add([]byte("FAS1"))
	f.Add([]byte("FAS1\x01\x01\xff\xff\xff\xff"))
	f.Add([]byte(nil))
	// Hand-built rings a well-formed encoder never writes: a slot index
	// repeated, zero counts, buckets that do not sit at their own slot (in
	// and out of slot order), and bucket numbers far apart, down to both
	// ends of int64.
	f.Add(rawWindowState(4, [][3]int64{{1, 5, 2}, {1, 100, 3}, {1, 37, 0}, {2, 98, 1}}))
	f.Add(rawWindowState(4, [][3]int64{{0, 7, 4}, {2, 7, 1}, {3, 0, 0}, {1, 6, 2}}))
	f.Add(rawWindowState(4, [][3]int64{{0, -1 << 62, 1}, {1, 1 << 62, 2}, {2, math.MaxInt64, 3}, {3, math.MinInt64, 4}}))
	f.Add(rawWindowState(3, [][3]int64{{0, 9, 1}, {1, 10, 1}, {2, -4, 5}}))
	f.Add(rawWindowState(4, [][3]int64{{0, 7, 4}, {1, 6, 2}, {2, 7, 1}}))
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

// rawWindowState encodes a one-key FAS1 state whose ring holds exactly the
// given (slot, bucket number, count) entries, in order, and no other signal.
func rawWindowState(buckets int, slots [][3]int64) []byte {
	b := []byte("FAS1")
	b = binary.AppendUvarint(b, uint64(time.Minute))
	b = binary.AppendUvarint(b, uint64(buckets))
	b = binary.AppendUvarint(b, 0) // observed
	b = binary.AppendUvarint(b, 1) // one key
	b = appendString(b, "fp:raw")
	b = binary.AppendUvarint(b, uint64(len(slots)))
	for _, s := range slots {
		b = binary.AppendUvarint(b, uint64(s[0]))
		b = binary.AppendVarint(b, s[1])
		b = binary.AppendUvarint(b, uint64(s[2]))
	}
	return append(b, 0, 0, 0, 0) // no distinct, sketch, top-K or surge
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
