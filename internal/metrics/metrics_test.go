package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunningMoments(t *testing.T) {
	var r Running
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Observe(v)
	}
	if r.N() != 8 {
		t.Fatalf("N() = %d", r.N())
	}
	if r.Mean() != 5 {
		t.Fatalf("Mean() = %v", r.Mean())
	}
	if math.Abs(r.Variance()-4) > 1e-12 {
		t.Fatalf("Variance() = %v", r.Variance())
	}
	if math.Abs(r.Std()-2) > 1e-12 {
		t.Fatalf("Std() = %v", r.Std())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.Std() != 0 {
		t.Fatal("empty Running non-zero")
	}
	r.Observe(7)
	if r.Mean() != 7 || r.Variance() != 0 {
		t.Fatal("single-sample Running wrong")
	}
}

func TestRunningMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			samples = append(samples, v)
		}
		if len(samples) < 2 {
			return true
		}
		var r Running
		var sum float64
		for _, v := range samples {
			r.Observe(v)
			sum += v
		}
		mean := sum / float64(len(samples))
		var sq float64
		for _, v := range samples {
			sq += (v - mean) * (v - mean)
		}
		naiveVar := sq / float64(len(samples))
		scale := math.Max(1, naiveVar)
		return math.Abs(r.Mean()-mean) < 1e-6*math.Max(1, math.Abs(mean)) &&
			math.Abs(r.Variance()-naiveVar) < 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "Country", "Increase")
	tb.AddRow("Uzbekistan", "160,209%")
	tb.AddRow("Iran")
	out := tb.String()
	if !strings.HasPrefix(out, "Demo\n") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "Country") || !strings.Contains(lines[1], "Increase") {
		t.Fatalf("header line %q", lines[1])
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows() = %d", tb.Rows())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", `quote"d`)
	csv := tb.CSV()
	want := "a,b\n\"x,y\",\"quote\"\"d\"\n"
	if csv != want {
		t.Fatalf("CSV() = %q, want %q", csv, want)
	}
}

func TestTableDropsExtraCells(t *testing.T) {
	tb := NewTable("", "only")
	tb.AddRow("a", "overflow")
	if strings.Contains(tb.String(), "overflow") {
		t.Fatal("overflow cell rendered")
	}
}

func TestFormatInt(t *testing.T) {
	cases := map[int64]string{
		0:       "0",
		999:     "999",
		1000:    "1,000",
		160209:  "160,209",
		-56000:  "-56,000",
		1234567: "1,234,567",
	}
	for in, want := range cases {
		if got := FormatInt(in); got != want {
			t.Errorf("FormatInt(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatPct(t *testing.T) {
	if got := FormatPct(160209.4); got != "160,209%" {
		t.Fatalf("FormatPct = %q", got)
	}
	if got := FormatPct(66.6); got != "67%" {
		t.Fatalf("FormatPct = %q", got)
	}
}
