package obs

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseText holds the exposition reader and writer to a round trip:
// ParseText never panics, and whatever it accepts, written back out by
// WritePrometheus, parses again to the same samples in the same order.
func FuzzParseText(f *testing.F) {
	r := NewRegistry()
	r.Counter("requests_total", Label{Name: "path", Value: `/a"b\c` + "\n"}).v.Add(3)
	r.Gauge("queue_depth").Set(-0.5)
	r.Histogram("lat_seconds", []float64{0.01, 0.1}, Label{Name: "layer", Value: "path"}).Observe(0.05)
	r.Help("requests_total", "Requests seen.\nSecond line.")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		b.String(),
		"a 1\n",
		"a{} 1\n",
		"a{l=\"v\",} +Inf\n",
		"a{l=\"}\"}NaN\n",
		"a{l=\"v\"} 1 2\n",
		"# TYPE a counter\na -0\n",
		"# HELP\n",
		"a{l=\"\\x\"} 1\n",
		"1a 1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		parsed, err := ParseText(strings.NewReader(in))
		if err != nil {
			return
		}
		r := NewRegistry()
		r.Register(CollectorFunc(func(dst []Sample) []Sample { return append(dst, parsed...) }))
		want := r.Gather()
		var out strings.Builder
		if err := r.WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		got, err := ParseText(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("re-parse of written exposition failed: %v\ninput:\n%q\nwritten:\n%q", err, in, out.String())
		}
		if len(got) != len(want) {
			t.Fatalf("re-parse gave %d samples, want %d\nwritten:\n%q", len(got), len(want), out.String())
		}
		for i := range want {
			if !sameSample(got[i], want[i]) {
				t.Fatalf("sample %d: re-parsed %+v, want %+v\nwritten:\n%q", i, got[i], want[i], out.String())
			}
		}
	})
}

// sameSample compares two samples, treating every NaN as equal.
func sameSample(a, b Sample) bool {
	if a.Name != b.Name || len(a.Labels) != len(b.Labels) {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	if math.IsNaN(a.Value) || math.IsNaN(b.Value) {
		return math.IsNaN(a.Value) && math.IsNaN(b.Value)
	}
	return a.Value == b.Value && math.Signbit(a.Value) == math.Signbit(b.Value)
}
