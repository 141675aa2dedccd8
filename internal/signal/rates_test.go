package signal

import (
	"math"
	"strconv"
	"testing"
	"time"

	"funabuse/internal/race"
)

// windowsOnlyPayload is what a fleet node publishes: the encoded state of
// a windows-only engine holding keys fingerprints, each seen several times
// inside one window.
func windowsOnlyPayload(keys int) []byte {
	start := time.Date(2022, time.May, 2, 0, 0, 0, 0, time.UTC)
	e := NewEngine(EngineConfig{Shards: 4, Window: time.Minute})
	for i := range 4 * keys {
		fp := uint64(i%keys+1) * 0x9e3779b97f4a7c15
		e.Observe("fp:"+strconv.FormatUint(fp, 16), start.Add(time.Duration(i)*10*time.Millisecond))
	}
	return e.State().Encode()
}

// TestRatesMatchDecodeState holds the rate view to DecodeState on the
// rings a well-formed encoder never writes, where the view cannot just sum
// the list: the last write to a slot wins, slots at or past buckets name
// nothing, counts truncate to uint32, and the scan bounds wrap at both
// ends of int64. ring says whether the view must have fallen back to a
// decoded ring for the key.
func TestRatesMatchDecodeState(t *testing.T) {
	cases := []struct {
		name string
		wire []byte
		ring bool
	}{
		{"fleet payload", windowsOnlyPayload(50), false},
		{"duplicate slot, later write wins", rawWindowState(4, [][3]int64{{1, 5, 2}, {1, 6, 3}}), true},
		{"duplicate slot, later write zeroes it", rawWindowState(4, [][3]int64{{0, 7, 4}, {0, 7, 0}, {2, 7, 1}}), true},
		{"slots out of order", rawWindowState(4, [][3]int64{{2, 10, 1}, {1, 9, 1}, {3, 11, 5}}), true},
		{"slot at buckets", rawWindowState(4, [][3]int64{{0, 10, 1}, {4, 10, 3}, {3, 9, 2}}), false},
		{"slot far past buckets, repeated", rawWindowState(4, [][3]int64{{-1, 10, 3}, {1, 10, 2}, {-1, 11, 4}, {1 << 40, 10, 5}}), false},
		{"counts above uint32", rawWindowState(4, [][3]int64{{0, 10, 1 << 32}, {1, 10, 1<<32 + 5}, {2, 9, math.MaxInt64}}), false},
		{"buckets at the ends of int64", rawWindowState(4, [][3]int64{
			{0, math.MinInt64, 1}, {1, math.MinInt64 + 1, 2}, {2, math.MaxInt64 - 1, 4}, {3, math.MaxInt64, 3}}), false},
		{"ends of int64, repeated slot", rawWindowState(4, [][3]int64{
			{3, math.MaxInt64, 3}, {0, math.MinInt64 + 2, 1}, {3, math.MinInt64, 6}}), true},
		{"duplicate key, later list wins", rawWindows(4,
			rawKey{"fp:a", [][3]int64{{0, 8, 1}}}, rawKey{"fp:b", [][3]int64{{1, 9, 2}}},
			rawKey{"fp:a", [][3]int64{{2, 10, 7}, {2, 10, 9}}}), false},
	}
	for _, tc := range cases {
		if err := ratesMismatch(tc.wire); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rs, err := DecodeRates(tc.wire)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if l := rs.lists["fp:raw"]; (l.ring != nil) != tc.ring {
			t.Fatalf("%s: view holds a ring %v, want %v", tc.name, l.ring != nil, tc.ring)
		}
		// The ends of int64 themselves, which the probes around newest only
		// reach by wrapping.
		st, _ := DecodeState(tc.wire)
		for key := range st.windows {
			for _, num := range []int64{math.MinInt64, math.MinInt64 + 2, math.MaxInt64 - 4, math.MaxInt64} {
				if got, want := rs.rateAt([]byte(key), num), st.windows[key].countAt(num); got != want {
					t.Fatalf("%s: %q at bucket %d: view %d, state %d", tc.name, key, num, got, want)
				}
			}
		}
	}
	// The later list of a repeated key is the one the view reads.
	rs, _ := DecodeRates(cases[len(cases)-1].wire)
	if got := rs.rateAt([]byte("fp:a"), 10); got != 9 {
		t.Fatalf("repeated key rates %d at its later list's bucket, want 9", got)
	}
}

// TestPeerRateZeroAlloc pins the read a fleet node makes per peer on every
// decision: a Rate hit and a miss on a rate view each allocate nothing.
func TestPeerRateZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	rs, err := DecodeRates(windowsOnlyPayload(500))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2022, time.May, 2, 0, 0, 20, 0, time.UTC)
	fp, mult := uint64(7), uint64(0x9e3779b97f4a7c15)
	fp *= mult
	hit := "fp:" + strconv.FormatUint(fp, 16)
	if rs.Rate([]byte(hit), now) == 0 {
		t.Fatalf("%s rates 0: not a hit", hit)
	}
	for name, key := range map[string][]byte{"hit": []byte(hit), "miss": []byte("fp:absent")} {
		if avg := testing.AllocsPerRun(200, func() { rs.Rate(key, now) }); avg != 0 {
			t.Fatalf("Rate %s allocates %.1f times, want 0", name, avg)
		}
	}
}

func BenchmarkDecodeRates(b *testing.B) {
	wire := windowsOnlyPayload(500)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeRates(wire); err != nil {
			b.Fatal(err)
		}
	}
}
