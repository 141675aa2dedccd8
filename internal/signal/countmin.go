package signal

import "math"

// CountMin is a count-min sketch: a fixed-size frequency estimator over an
// unbounded key space. Estimates never undercount; with width w and depth
// d the overcount is at most e/w times the stream total with probability
// at least 1 - (1/e)^d (ε = e/w, δ = e^-d).
//
// CountMin is not safe for concurrent use; Engine shards and locks around
// per-shard sketches.
type CountMin struct {
	width int
	depth int
	rows  [][]uint64
	total uint64
}

// NewCountMin returns a sketch with the given row width and number of
// rows. Non-positive arguments fall back to 2048x4 (ε ≈ 0.13%, δ ≈ 2%).
func NewCountMin(width, depth int) *CountMin {
	if width <= 0 {
		width = 2048
	}
	if depth <= 0 {
		depth = 4
	}
	rows := make([][]uint64, depth)
	cells := make([]uint64, width*depth)
	for i := range rows {
		rows[i] = cells[i*width : (i+1)*width : (i+1)*width]
	}
	return &CountMin{width: width, depth: depth, rows: rows}
}

// NewCountMinWithError returns a sketch sized so estimates overcount by at
// most epsilon times the stream total with probability at least 1 - delta.
func NewCountMinWithError(epsilon, delta float64) *CountMin {
	if epsilon <= 0 || epsilon >= 1 {
		epsilon = 0.001
	}
	if delta <= 0 || delta >= 1 {
		delta = 0.01
	}
	width := int(math.Ceil(math.E / epsilon))
	depth := int(math.Ceil(math.Log(1 / delta)))
	return NewCountMin(width, depth)
}

// Width returns the row width.
func (c *CountMin) Width() int { return c.width }

// Depth returns the number of rows.
func (c *CountMin) Depth() int { return c.depth }

// Add folds n occurrences of key into the sketch.
func (c *CountMin) Add(key string, n uint64) {
	if n == 0 {
		return
	}
	c.AddHash(hash64(key), n)
}

// AddHash is Add for a pre-computed hash64 of the key.
func (c *CountMin) AddHash(h uint64, n uint64) {
	if n == 0 {
		return
	}
	h1, h2 := h, mix64(h)|1
	for i := range c.rows {
		c.rows[i][(h1+uint64(i)*h2)%uint64(c.width)] += n
	}
	c.total += n
}

// Count returns the frequency estimate for key: the minimum over rows,
// an upper bound on the true count.
func (c *CountMin) Count(key string) uint64 {
	return c.CountHash(hash64(key))
}

// CountHash is Count for a pre-computed hash64 of the key.
func (c *CountMin) CountHash(h uint64) uint64 {
	h1, h2 := h, mix64(h)|1
	min := uint64(math.MaxUint64)
	for i := range c.rows {
		if v := c.rows[i][(h1+uint64(i)*h2)%uint64(c.width)]; v < min {
			min = v
		}
	}
	return min
}

// Total returns the number of stream items folded in.
func (c *CountMin) Total() uint64 { return c.total }

// ErrorBound returns the additive overcount bound ε·Total that holds for
// each estimate with probability at least 1 - δ.
func (c *CountMin) ErrorBound() float64 {
	return math.E / float64(c.width) * float64(c.total)
}

// Clone returns a deep copy of the sketch.
func (c *CountMin) Clone() *CountMin {
	n := NewCountMin(c.width, c.depth)
	for i := range c.rows {
		copy(n.rows[i], c.rows[i])
	}
	n.total = c.total
	return n
}

// Merge folds another sketch of identical dimensions into this one.
// It reports whether the shapes matched (mismatched sketches are left
// untouched).
func (c *CountMin) Merge(o *CountMin) bool {
	if o == nil || o.width != c.width || o.depth != c.depth {
		return false
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] += o.rows[i][j]
		}
	}
	c.total += o.total
	return true
}
