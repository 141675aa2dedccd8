// Package simrand provides deterministic pseudo-random numbers and the
// distributions the workload and attack generators draw from.
//
// All randomness in the framework flows from a seeded RNG so that every
// scenario is bit-for-bit reproducible. Sub-streams derived with Derive are
// independent of the draw order in sibling streams, which keeps experiments
// stable when one component adds or removes draws.
package simrand

import (
	"hash/fnv"
	"math"
)

// RNG is a deterministic pseudo-random number generator based on SplitMix64.
// The zero value is a valid generator seeded with 0, but callers should
// prefer New to make seeding explicit. RNG is not safe for concurrent use;
// derive one stream per simulated actor instead of sharing.
type RNG struct {
	seed  uint64
	state uint64

	// Box-Muller cache for NormFloat64.
	hasSpare bool
	spare    float64
}

// New returns an RNG seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{seed: seed, state: seed}
}

// Derive returns a new RNG whose stream is a pure function of this RNG's
// seed and the label, independent of how many values have been drawn from
// the parent. Use it to give each simulated actor its own stream.
//
// Derive is a thin wrapper so that it inlines: a caller that only draws
// from the derived stream and drops it keeps the RNG on its stack.
func (r *RNG) Derive(label string) *RNG {
	return New(r.derivedSeed(label))
}

func (r *RNG) derivedSeed(label string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putUint64(buf[:], r.seed)
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	return mix(h.Sum64())
}

func putUint64(b []byte, v uint64) {
	for i := range 8 {
		b[i] = byte(v >> (8 * i))
	}
}

// mix is the SplitMix64 output function, used to whiten derived seeds.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative random int64.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand; simulation code treats that as a programming error.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntBetween returns a uniform int in [lo, hi]. It panics if hi < lo.
func (r *RNG) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("simrand: IntBetween with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// NormFloat64 returns a standard-normal variate (Box–Muller with caching).
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exp returns an exponential variate with the given mean (= 1/rate).
// It panics if mean <= 0.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("simrand: Exp with non-positive mean")
	}
	return mean * r.ExpFloat64()
}

// LogNormal returns exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Poisson returns a Poisson variate with the given mean. For large means it
// uses a normal approximation, which is accurate enough for traffic volumes.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := int(math.Round(r.Normal(mean, math.Sqrt(mean))))
		if v < 0 {
			return 0
		}
		return v
	}
	// Knuth's algorithm.
	limit := math.Exp(-mean)
	p := 1.0
	k := 0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Zipf returns a Zipf-distributed rank in [0, n) with exponent s >= 0 via
// inverse-CDF over precomputed weights; use NewZipf for repeated draws.
func (r *RNG) Zipf(n int, s float64) int {
	z := NewZipf(n, s)
	return z.Draw(r)
}

// Zipf draws ranks with probability proportional to 1/(rank+1)^s.
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes the CDF for n ranks with exponent s. It panics if
// n <= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("simrand: Zipf with non-positive n")
	}
	cdf := make([]float64, n)
	total := 0.0
	for i := range n {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf}
}

// Draw returns a rank in [0, len(cdf)).
func (z *Zipf) Draw(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Categorical draws indices with the given non-negative weights.
type Categorical struct {
	cdf []float64
}

// NewCategorical builds a sampler over weights. It panics if weights is
// empty or sums to zero, which would make the distribution undefined.
func NewCategorical(weights []float64) *Categorical {
	if len(weights) == 0 {
		panic("simrand: Categorical with no weights")
	}
	cdf := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		total += w
		cdf[i] = total
	}
	if total <= 0 {
		panic("simrand: Categorical weights sum to zero")
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Categorical{cdf: cdf}
}

// Draw returns an index in [0, len(weights)).
func (c *Categorical) Draw(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(c.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Pick returns a uniformly chosen element of s. It panics on an empty slice.
func Pick[T any](r *RNG, s []T) T {
	if len(s) == 0 {
		panic("simrand: Pick from empty slice")
	}
	return s[r.Intn(len(s))]
}
