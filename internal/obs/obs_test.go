package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func sampleByID(t *testing.T, samples []Sample, id string) Sample {
	t.Helper()
	for _, s := range samples {
		if metricID(s.Name, s.Labels) == id {
			return s
		}
	}
	t.Fatalf("no sample %q in %d samples", id, len(samples))
	return Sample{}
}

func TestCounterGaugeRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", Label{"layer", "path"})
	c.Inc()
	c.Add(4)
	g := r.Gauge("temp")
	g.Set(2.5)
	g.Add(-1)

	samples := r.Gather()
	if got := sampleByID(t, samples, `reqs_total{layer="path"}`).Value; got != 5 {
		t.Fatalf("counter = %v, want 5", got)
	}
	if got := sampleByID(t, samples, "temp").Value; got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHandleIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", Label{"k", "v"})
	b := r.Counter("c_total", Label{"k", "v"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("c_total", Label{"k", "w"})
	if a == other {
		t.Fatal("different labels shared one counter")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge re-registration of a counter family did not panic")
		}
	}()
	r.Gauge("m", Label{"k", "v"})
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name accepted")
		}
	}()
	r.Counter("bad name")
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.605) > 1e-9 {
		t.Fatalf("sum = %v, want 5.605", h.Sum())
	}
	samples := r.Gather()
	wantBuckets := map[string]float64{
		`lat_seconds_bucket{le="0.01"}`: 1,
		`lat_seconds_bucket{le="0.1"}`:  3,
		`lat_seconds_bucket{le="1"}`:    4,
		`lat_seconds_bucket{le="+Inf"}`: 5,
	}
	for id, want := range wantBuckets {
		if got := sampleByID(t, samples, id).Value; got != want {
			t.Errorf("%s = %v, want %v", id, got, want)
		}
	}
	if got := sampleByID(t, samples, "lat_seconds_count").Value; got != 5 {
		t.Errorf("count sample = %v, want 5", got)
	}
}

func TestHistogramBoundaryLandsInBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // exactly on a bound: le="1" is inclusive
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("boundary observation landed in bucket %v", h.counts)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("par_total")
	h := r.Histogram("par_seconds", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.01)
				r.Gauge("par_gauge").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestWriteAndParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_total", Label{"layer", `we"ird\va|ue`}).Add(3)
	r.Gauge("rt_gauge").Set(-2.25)
	r.Histogram("rt_seconds", []float64{0.5}).Observe(0.25)
	r.Help("rt_total", "round trip counter")
	r.Register(CollectorFunc(func(dst []Sample) []Sample {
		return append(dst, Sample{Name: "external_metric", Value: 11})
	}))

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	if got := sampleByID(t, parsed, metricID("rt_total", []Label{{"layer", `we"ird\va|ue`}})).Value; got != 3 {
		t.Fatalf("rt_total = %v, want 3", got)
	}
	if got := sampleByID(t, parsed, "external_metric").Value; got != 11 {
		t.Fatalf("external_metric = %v, want 11", got)
	}
	if !strings.Contains(b.String(), "# TYPE rt_seconds histogram") {
		t.Fatalf("missing histogram TYPE line:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "# HELP rt_total round trip counter") {
		t.Fatalf("missing HELP line:\n%s", b.String())
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Gauge("z_last").Set(1)
		r.Counter("a_first_total").Add(2)
		r.Histogram("mid_seconds", []float64{1, 2}).Observe(1.5)
		var b strings.Builder
		r.WritePrometheus(&b)
		return b.String()
	}
	if build() != build() {
		t.Fatal("two identical registries rendered differently")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := []string{
		"no_value_here\n",
		`m{unterminated="v 1` + "\n",
		"m 1 2 3\n",
		"1leading_digit 2\n",
		"# TYPE m zebra\n",
	}
	for _, in := range bad {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("ParseText accepted %q", in)
		}
	}
}
