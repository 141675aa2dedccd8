package names

import (
	"strings"
	"testing"

	"funabuse/internal/simrand"
)

// referenceDL is the original DamerauLevenshtein: three heap rows per call.
// The stack-row version must return the same distance for every input.
func referenceDL(a, b string) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev2 := make([]int, lb+1)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				d = min(d, prev2[j-2]+1)
			}
			cur[j] = d
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

func TestDamerauLevenshteinMatchesReference(t *testing.T) {
	check := func(a, b string) {
		t.Helper()
		if got, want := DamerauLevenshtein(a, b), referenceDL(a, b); got != want {
			t.Fatalf("DamerauLevenshtein(%q, %q) = %d, reference = %d", a, b, got, want)
		}
	}

	long := strings.Repeat("ALEXANDER ", 20) // 200 bytes: well past the stack rows
	fixed := [][2]string{
		{"", ""}, {"", "A"}, {"A", ""}, {"A", "A"}, {"AB", "BA"}, {"ABC", "CAB"},
		{"JOHN SMITH", "JOHN SMITH"}, {"JOHN SMITH", "JOHN SMTIH"}, {"JOHN SMITH", "JON SMITH"},
		{long, long}, {long, long[1:]}, {long[:dlStackRow-1], long[:dlStackRow]},
		{long[:dlStackRow], long[:dlStackRow-1]}, {long[:dlStackRow], long[1 : dlStackRow+1]},
		{long, "A"}, {"A", long}, {long, ""},
	}
	for _, p := range fixed {
		check(p[0], p[1])
	}

	// Seeded random pairs over a small alphabet (so matches and
	// transpositions are common), lengths straddling the stack-row limit,
	// plus typo'd and transposed copies.
	rng := simrand.New(21)
	random := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('A' + rng.Intn(4))
		}
		return string(b)
	}
	for range 4000 {
		a := random(rng.Intn(24))
		check(a, random(rng.Intn(24)))
		check(a, typo(rng, a))
		if len(a) >= 2 {
			i := rng.Intn(len(a) - 1)
			check(a, a[:i]+string([]byte{a[i+1], a[i]})+a[i+2:])
		}
	}
	for range 200 {
		a := random(dlStackRow - 4 + rng.Intn(8))
		check(a, random(dlStackRow-4+rng.Intn(8)))
		check(a, typo(rng, a))
	}
	g := NewGenerator(rng.Derive("names"))
	for range 2000 {
		a, b := g.Realistic(), g.Realistic()
		check(a.FullName(), b.FullName())
		check(a.FullName(), Misspell(rng, a).FullName())
	}
}

func TestDamerauLevenshteinZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	a := strings.Repeat("A", dlStackRow-1)
	b := strings.Repeat("B", dlStackRow-1)
	sink := 0
	avg := testing.AllocsPerRun(200, func() {
		sink += DamerauLevenshtein("CHRISTOPHER ALEXANDER", "CHRISTOPER ALEXANDRE")
		sink += DamerauLevenshtein(a, b) // the longest pair the stack rows hold
	})
	if avg != 0 {
		t.Fatalf("DamerauLevenshtein allocates %.1f times per two calls, want 0", avg)
	}
	_ = sink
}
