package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := range 1000 {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for range 100 {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestDeriveIndependentOfParentDraws(t *testing.T) {
	p1 := New(7)
	p2 := New(7)
	p2.Uint64() // extra draw must not change derived streams
	d1 := p1.Derive("actor-1")
	d2 := p2.Derive("actor-1")
	for i := range 100 {
		if d1.Uint64() != d2.Uint64() {
			t.Fatalf("derived streams diverged at draw %d", i)
		}
	}
}

func TestDeriveLabelsDisjoint(t *testing.T) {
	p := New(7)
	d1 := p.Derive("a")
	d2 := p.Derive("b")
	if d1.Uint64() == d2.Uint64() {
		t.Fatal("different labels produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for range 10000 {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	seen := make(map[int]bool)
	for range 10000 {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntBetweenInclusive(t *testing.T) {
	r := New(5)
	sawLo, sawHi := false, false
	for range 10000 {
		v := r.IntBetween(2, 5)
		if v < 2 || v > 5 {
			t.Fatalf("IntBetween(2,5) = %d", v)
		}
		sawLo = sawLo || v == 2
		sawHi = sawHi || v == 5
	}
	if !sawLo || !sawHi {
		t.Fatal("IntBetween never hit an endpoint")
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(6)
	n := 100000
	hits := 0
	for range n {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", got)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPermProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(9)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for range n {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("mean = %v, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Fatalf("variance = %v, want ~4", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(10)
	n := 200000
	sum := 0.0
	for range n {
		sum += r.Exp(5)
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("Exp mean = %v, want ~5", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.5, 4, 30, 200} {
		r := New(11)
		n := 50000
		sum := 0
		for range n {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(12)
	for range 10000 {
		if r.Poisson(100) < 0 {
			t.Fatal("Poisson returned negative")
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(13)
	z := NewZipf(10, 1.2)
	counts := make([]int, 10)
	for range 100000 {
		counts[z.Draw(r)]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[4] {
		t.Fatalf("Zipf not monotone enough: %v", counts)
	}
}

func TestCategoricalWeights(t *testing.T) {
	r := New(14)
	c := NewCategorical([]float64{1, 3, 6})
	counts := make([]int, 3)
	n := 100000
	for range n {
		counts[c.Draw(r)]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("weight %d rate = %v, want ~%v", i, got, want)
		}
	}
}

func TestCategoricalPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-weight Categorical did not panic")
		}
	}()
	NewCategorical([]float64{0, 0})
}

func TestCategoricalIgnoresNegativeWeights(t *testing.T) {
	r := New(15)
	c := NewCategorical([]float64{-5, 1})
	for range 1000 {
		if c.Draw(r) != 1 {
			t.Fatal("negative weight was drawn")
		}
	}
}

func TestPick(t *testing.T) {
	r := New(16)
	s := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for range 1000 {
		seen[Pick(r, s)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick covered %d of 3 elements", len(seen))
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(17)
	for range 10000 {
		if r.LogNormal(0, 1) <= 0 {
			t.Fatal("LogNormal returned non-positive value")
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		s := []int{1, 2, 3, 4, 5, 6, 7, 8}
		sum := 0
		r.ShuffleInts(s)
		for _, v := range s {
			sum += v
		}
		return sum == 36
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
