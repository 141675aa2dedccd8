package main

import (
	"fmt"
	"math"
	"path/filepath"
)

// aaRow is one (workload, metric) pair of an A/A comparison: the same code
// measured twice, back to back.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// RelDiff is |second - first| / first.
	RelDiff float64 `json:"rel_diff"`
	Bound   float64 `json:"bound"`
	Floor   float64 `json:"floor,omitempty"`
	OK      bool    `json:"ok"`
}

// aaFile is out/aa.json, the noise-floor record.
type aaFile struct {
	Env  environment `json:"environment"`
	Rows []aaRow     `json:"rows"`
	OK   bool        `json:"ok"`
}

// withinBound reports whether two readings of one metric agree: their
// absolute difference is under the metric's floor, or their relative
// difference is under its bound.
func withinBound(d metricDef, first, second float64) (relDiff float64, ok bool) {
	diff := math.Abs(second - first)
	if first == 0 {
		// Nothing to be relative to: only the floor can pass it.
		return 0, diff <= d.Floor
	}
	relDiff = diff / math.Abs(first)
	return relDiff, diff <= d.Floor || (d.Bound > 0 && relDiff <= d.Bound)
}

// compareAA prints and writes the comparison of two untraced sets and
// reports whether every end-to-end metric of every workload agrees within
// its bound. Two runs of one commit that disagree by more than the bound
// mean the bound cannot gate anything.
func compareAA(env environment, first, second []*report, outDir string) bool {
	out := aaFile{Env: env, OK: true}
	fmt.Println("== A/A: the same code measured twice")
	for i, a := range first {
		b := second[i]
		for _, d := range endToEnd {
			va, okA := a.Metrics[d.Name]
			vb, okB := b.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			row := aaRow{Workload: a.Workload, Metric: d.Name, Unit: d.Unit,
				First: va.Value, Second: vb.Value, Bound: d.Bound, Floor: d.Floor}
			row.RelDiff, row.OK = withinBound(d, va.Value, vb.Value)
			verdict := "ok"
			switch {
			case d.Bound == 0 && d.Floor == 0:
				row.OK, verdict = true, "no bound: reported only"
			case !row.OK:
				verdict = "EXCEEDS BOUND"
			}
			out.OK = out.OK && row.OK
			fmt.Printf("  %-13s %-16s %16.4f %16.4f %-6s diff %6.2f%%  bound %5.1f%%  %s\n",
				row.Workload, row.Metric, row.First, row.Second, row.Unit, 100*row.RelDiff, 100*row.Bound, verdict)
			out.Rows = append(out.Rows, row)
		}
	}
	if err := writeJSON(filepath.Join(outDir, "aa.json"), out); err != nil {
		fmt.Println("bench:", err)
		return false
	}
	return out.OK
}
