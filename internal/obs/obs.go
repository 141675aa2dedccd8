// Package obs is the zero-dependency telemetry subsystem for the defence
// pipeline: an atomic metric registry (counters, gauges, fixed-bucket
// histograms), Prometheus text-format exposition, and a bounded
// ring-buffer decision-trace journal.
//
// The paper's operational lesson is that functional abuse is caught by
// operators *watching* path-level rates, surge tables and rule-rotation
// telemetry — not by any single detector. Every defence package therefore
// exposes its state through one contract:
//
//   - hot paths update pre-resolved handles (Counter.Inc, Gauge.Set,
//     Histogram.Observe) — single atomic operations, no locks, no
//     allocations;
//   - snapshot state that already lives in a package's own atomics is
//     exported lazily through a Collector, read only at scrape time;
//   - a Registry gathers both into a flat []Sample and renders the
//     Prometheus text format for /metrics.
//
// The registry is the one place metric names exist, so the exposition is
// stable: Gather sorts families by name and preserves each family's
// emission order, making scrape output byte-deterministic for a quiesced
// (virtual-time) simulation.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair qualifying a metric.
type Label struct {
	Name, Value string
}

// Sample is one scrape-time reading: a metric name, its labels in
// emission order, and the value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Kind classifies a metric family for exposition TYPE lines.
type Kind uint8

// Metric family kinds.
const (
	KindUntyped Kind = iota
	KindCounter
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Collector is the one snapshot contract every defence package exposes:
// Collect appends the collector's current samples to dst and returns it.
// Implementations must be safe for concurrent use with the package's hot
// path, must not retain dst, and must emit samples in a deterministic
// order so scrapes of a quiesced system are stable.
//
// httpgate.(*Gate).Collector, cluster.(*Cluster).Collector and
// core.(*Application).Collector return values of this type; see the
// conformance test in this package for the exact contract.
type Collector interface {
	Collect(dst []Sample) []Sample
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(dst []Sample) []Sample

// Collect implements Collector.
func (f CollectorFunc) Collect(dst []Sample) []Sample { return f(dst) }

// Value takes one snapshot of c and returns the value of the first sample
// matching name whose labels include every given label. ok is false when
// no sample matches. It is the point-read convenience over the Collector
// contract for tests and control loops that need a single reading rather
// than a full scrape.
func Value(c Collector, name string, labels ...Label) (value float64, ok bool) {
	for _, s := range c.Collect(nil) {
		if s.Name != name || !labelsInclude(s.Labels, labels) {
			continue
		}
		return s.Value, true
	}
	return 0, false
}

// labelsInclude reports whether have contains every label in want.
func labelsInclude(have, want []Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing metric. The zero value is ready
// to use; handles obtained from a Registry are shared by identity, so two
// Counter calls with the same name and labels return the same counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits.
// The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// entry is one registered metric: an owned handle or a read-at-scrape
// function.
type entry struct {
	name   string
	labels []Label
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry owns metric handles and gathers external Collectors. Handle
// lookup (Counter, Gauge, Histogram) takes the registry lock and is meant
// for construction time; the returned handles are lock-free and are what
// hot paths hold. Registry is safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	entries    []*entry
	byID       map[string]*entry
	families   map[string]Kind
	help       map[string]string
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:     make(map[string]*entry),
		families: make(map[string]Kind),
		help:     make(map[string]string),
	}
}

// Counter returns the counter registered under name and labels, creating
// it on first use. It panics on an invalid name or a kind conflict with
// an existing family — registration errors are programmer errors.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	e := r.lookup(name, KindCounter, labels)
	return e.counter
}

// Gauge returns the gauge registered under name and labels, creating it
// on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	e := r.lookup(name, KindGauge, labels)
	return e.gauge
}

// Histogram returns the histogram registered under name and labels,
// creating it on first use with the given bucket upper bounds (nil
// selects DefBuckets). Buckets are fixed at creation; a later call with
// different buckets returns the existing histogram unchanged.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := metricID(name, labels)
	if e, ok := r.byID[id]; ok {
		if e.kind != KindHistogram {
			panic(fmt.Sprintf("obs: metric %s re-registered as histogram, was %s", id, e.kind))
		}
		return e.hist
	}
	r.checkFamilyLocked(name, KindHistogram)
	e := &entry{name: name, labels: labels, kind: KindHistogram, hist: newHistogram(buckets)}
	r.addLocked(id, e)
	return e.hist
}

// Register adds an external Collector to the scrape. Collector samples
// are exposed as untyped families unless the family name is also owned
// by the registry.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Help attaches exposition help text to a metric family.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

func (r *Registry) lookup(name string, kind Kind, labels []Label) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := metricID(name, labels)
	if e, ok := r.byID[id]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", id, kind, e.kind))
		}
		return e
	}
	r.checkFamilyLocked(name, kind)
	e := &entry{name: name, labels: labels, kind: kind}
	switch kind {
	case KindCounter:
		e.counter = &Counter{}
	case KindGauge:
		e.gauge = &Gauge{}
	}
	r.addLocked(id, e)
	return e
}

func (r *Registry) addLocked(id string, e *entry) {
	r.byID[id] = e
	r.entries = append(r.entries, e)
}

// checkFamilyLocked validates the metric and label names and enforces one
// kind per family.
func (r *Registry) checkFamilyLocked(name string, kind Kind) {
	if !ValidName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if k, ok := r.families[name]; ok && k != kind {
		panic(fmt.Sprintf("obs: family %s registered as both %s and %s", name, k, kind))
	}
	r.families[name] = kind
}

// Gather snapshots every owned metric and registered collector into a
// flat sample list: families sorted by name, each family's samples in
// emission order (registration order for owned metrics, collector order
// for external ones — histogram bucket order is preserved).
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	var out []Sample
	for _, e := range entries {
		out = e.collect(out)
	}
	for _, c := range collectors {
		out = c.Collect(out)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// collect appends the entry's current samples.
func (e *entry) collect(dst []Sample) []Sample {
	switch {
	case e.counter != nil:
		return append(dst, Sample{Name: e.name, Labels: e.labels, Value: float64(e.counter.Value())})
	case e.gauge != nil:
		return append(dst, Sample{Name: e.name, Labels: e.labels, Value: e.gauge.Value()})
	case e.hist != nil:
		return e.hist.collect(e.name, e.labels, dst)
	}
	return dst
}

// helpFor returns the registered help text for a family, or "".
func (r *Registry) helpFor(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.help[name]
}

// metricID renders the unique identity of a metric: name plus labels in
// the order given.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if !ValidLabelName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %s", l.Name, name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// ValidName reports whether name is a legal Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*).
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ValidLabelName reports whether name is a legal Prometheus label name
// ([a-zA-Z_][a-zA-Z0-9_]*).
func ValidLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// escapeLabel escapes a label value for the text format. It works byte by
// byte, so a value that is not valid UTF-8 passes through unchanged rather
// than having its stray bytes rewritten to U+FFFD.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
