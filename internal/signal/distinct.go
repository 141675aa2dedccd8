package signal

import "math"

// Distinct is a HyperLogLog-style distinct counter: 2^p one-byte
// registers estimate the number of unique items ever added with a typical
// relative error of about 1.04/sqrt(2^p), independent of the true
// cardinality. It is the constant-memory signal behind rotation detection
// (distinct exit IPs per device fingerprint) and footprint measurement
// (distinct destination countries per actor).
//
// Distinct is not safe for concurrent use; Engine shards and locks around
// per-key counters.
type Distinct struct {
	p    uint8
	regs []uint8
}

// DefaultDistinctPrecision trades 2^12 bytes per counter for ~1.6%
// typical relative error.
const DefaultDistinctPrecision = 12

// NewDistinct returns a counter with 2^precision registers. Precision is
// clamped to [4, 16].
func NewDistinct(precision uint8) *Distinct {
	precision = clampPrecision(precision)
	return &Distinct{p: precision, regs: make([]uint8, 1<<precision)}
}

func clampPrecision(precision uint8) uint8 {
	return min(max(precision, 4), 16)
}

// distinctSlab carves counters of one precision out of shared backing
// arrays, the Distinct half of what windowSlab does for rings.
type distinctSlab struct {
	p        uint8
	counters []Distinct
	regs     []uint8
}

// reserve makes sure n more counters can be carved, replacing the backing
// arrays when they cannot.
func (s *distinctSlab) reserve(n int) {
	if len(s.counters) >= n {
		return
	}
	s.counters = make([]Distinct, n)
	s.regs = make([]uint8, n<<s.p)
}

// next carves one zeroed counter out of what reserve set aside.
func (s *distinctSlab) next() *Distinct {
	d, m := &s.counters[0], 1<<s.p
	*d = Distinct{p: s.p, regs: s.regs[:m:m]}
	s.counters, s.regs = s.counters[1:], s.regs[m:]
	return d
}

// clone carves a copy of o, a counter of the slab's precision.
func (s *distinctSlab) clone(o *Distinct) *Distinct {
	d := s.next()
	copy(d.regs, o.regs)
	return d
}

// Add folds key into the counter.
func (d *Distinct) Add(key string) { d.AddHash(hash64(key)) }

// AddHash is Add for a pre-computed hash64 of the item.
func (d *Distinct) AddHash(h uint64) {
	// FNV over short keys leaves structure in the low bits; whiten first.
	h = mix64(h)
	idx := h >> (64 - d.p)
	rest := h<<d.p | 1<<(d.p-1) // guarantee a set bit so rank <= 64-p+1
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > d.regs[idx] {
		d.regs[idx] = rank
	}
}

// Estimate returns the estimated number of distinct items added.
func (d *Distinct) Estimate() float64 {
	m := float64(len(d.regs))
	var sum float64
	zeros := 0
	for _, r := range d.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	est := alpha(len(d.regs)) * m * m / sum
	// Small-range correction: linear counting while registers are sparse.
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return est
}

// StdError returns the counter's typical relative error, 1.04/sqrt(m).
func (d *Distinct) StdError() float64 {
	return 1.04 / math.Sqrt(float64(len(d.regs)))
}

// Clone returns a deep copy of the counter.
func (d *Distinct) Clone() *Distinct {
	c := &Distinct{p: d.p, regs: make([]uint8, len(d.regs))}
	copy(c.regs, d.regs)
	return c
}

// Merge folds another counter of identical precision into this one,
// yielding the counter of the union stream. It reports whether the
// precisions matched.
func (d *Distinct) Merge(o *Distinct) bool {
	if o == nil || o.p != d.p {
		return false
	}
	for i, r := range o.regs {
		if r > d.regs[i] {
			d.regs[i] = r
		}
	}
	return true
}

// alpha is the HyperLogLog bias-correction constant for m registers.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}
