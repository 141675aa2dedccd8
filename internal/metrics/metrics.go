// Package metrics provides the small measurement toolkit the experiment
// harness reports with: running moments, sharded keyed counters and
// fixed-width text tables. Live counters and histograms are internal/obs.
//
// Concurrency contract: unless a type documents otherwise, the types in
// this package are NOT safe for concurrent use. Running is a
// single-goroutine accumulator — the deterministic simulation model is
// single-threaded virtual time, and the hot loops that feed it must not
// pay for synchronisation they do not need. Code that accumulates from
// several goroutines (the replicate runner's worker pool) uses the types
// in sharded.go (ShardedKeyedCounter, ShardedRunning), which are safe for
// concurrent use; ShardedRunning merges into a Running for reporting.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Running accumulates mean and variance online (Welford's algorithm).
// It is single-goroutine like the rest of the package; concurrent
// accumulation goes through ShardedRunning and merges back with Merge.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe adds a sample.
func (r *Running) Observe(v float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = v, v
	} else {
		if v < r.min {
			r.min = v
		}
		if v > r.max {
			r.max = v
		}
	}
	d := v - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (v - r.mean)
}

// N returns the sample count.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (0 with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// Std returns the population standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Variance()) }

// Merge folds another accumulator into r as if every sample observed by
// other had been observed by r (Chan et al.'s parallel variance update).
// The result is independent of merge order up to floating-point rounding.
func (r *Running) Merge(other Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = other
		return
	}
	n1, n2 := float64(r.n), float64(other.n)
	d := other.mean - r.mean
	n := n1 + n2
	r.mean += d * n2 / n
	r.m2 += other.m2 + d*d*n1*n2/n
	r.n += other.n
	if other.min < r.min {
		r.min = other.min
	}
	if other.max > r.max {
		r.max = other.max
	}
}

// Min returns the smallest sample (0 with no samples).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample (0 with no samples).
func (r *Running) Max() float64 { return r.max }

// Table is a fixed-column text table for experiment reports.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header line.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	for i, h := range t.headers {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(h))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatPct renders a percentage with thousands separators, matching the
// paper's Table I style ("160,209%").
func FormatPct(pct float64) string {
	v := int64(math.Round(pct))
	return FormatInt(v) + "%"
}

// FormatInt renders an integer with thousands separators.
func FormatInt(v int64) string {
	neg := v < 0
	if neg {
		v = -v
	}
	s := fmt.Sprintf("%d", v)
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	if neg {
		return "-" + b.String()
	}
	return b.String()
}
