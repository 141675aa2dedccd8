package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Span names of the traced pass. Every span is recorded from the
// benchmark's own files, around a call into a layer.
const (
	spanReplay    = iota // one in-process replay of the plan
	spanDecide           // one Gate.Decide call inside a replay
	spanRequest          // driver.request: send to last byte, client side
	spanHandle           // server.handle: the wrapper around gate.Wrap(next) / Cluster.Handler()
	spanBackend          // backend: next, the handler behind the gate
	spanPublish          // cluster.publish: Transport.Publish
	spanFetch            // cluster.fetch: Transport.Fetch
	spanSweep            // runner.Run of one experiment
	spanReplicate        // one (experiment, seed) run inside it
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"driver.replay", "gate.decide", "driver.request", "server.handle", "backend",
	"cluster.publish", "cluster.fetch", "runner.run", "core.replicate",
}

// span is one recorded interval. Spans of one request share Req; Parent is
// the span that caused this one (zero for a root, or when the cause sits on
// the other side of the socket and is joined by Req instead).
type span struct {
	ID     uint32
	Parent uint32
	Name   uint8
	Req    uint64
	Start  int64 // nanoseconds since the recorder's origin
	End    int64
	Bytes  int // payload size, for transport spans
}

// recorder keeps the spans of one traced pass in memory; they are written
// out when the pass ends. A nil recorder records nothing, which is how the
// untraced passes share the traced pass's code.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(name uint8, parent uint32, req uint64) uint32 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	id := uint32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id uint32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose both ends the caller already read.
func (r *recorder) add(name uint8, parent uint32, req uint64, start, end time.Time) uint32 {
	return r.addBytes(name, parent, req, start, end, 0)
}

func (r *recorder) addBytes(name uint8, parent uint32, req uint64, start, end time.Time, bytes int) uint32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := uint32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)), Bytes: bytes})
	r.mu.Unlock()
	return id
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// selfTimes returns, per span (indexed like spans), its duration minus the
// part of its interval that its children cover. Children may overlap each
// other or stick out of the parent (clocks on two sides of a socket): the
// covered part is the union of the children's intervals clipped to the
// parent's.
func selfTimes(spans []span) []int64 {
	index := make(map[uint32]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	edge := lo
	for _, iv := range ivs {
		start, end := max(iv[0], edge), min(iv[1], hi)
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// joinByRequest links spans recorded on two sides of a socket: a span with
// no parent takes as parent the span named parentName that carries the same
// request id. Spans already parented are left alone.
func joinByRequest(spans []span, childName, parentName uint8) {
	byReq := make(map[uint64]uint32)
	for _, s := range spans {
		if s.Name == parentName {
			byReq[s.Req] = s.ID
		}
	}
	for i := range spans {
		if spans[i].Name == childName && spans[i].Parent == 0 {
			spans[i].Parent = byReq[spans[i].Req]
		}
	}
}

// spanSummary aggregates one span name.
type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	TotalUS   float64 `json:"total_us"`
	SelfUS    float64 `json:"self_us"`
	MedSelfUS float64 `json:"median_self_us"`
	Bytes     int     `json:"bytes,omitempty"`
	self      []float64
}

// summarize groups spans by name with total and self time.
func summarize(spans []span) map[uint8]*spanSummary {
	self := selfTimes(spans)
	out := make(map[uint8]*spanSummary)
	for i, s := range spans {
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: spanNames[s.Name]}
			out[s.Name] = sum
		}
		sum.Count++
		sum.TotalUS += float64(s.End-s.Start) / 1e3
		sum.SelfUS += float64(self[i]) / 1e3
		sum.Bytes += s.Bytes
		sum.self = append(sum.self, float64(self[i])/1e3)
	}
	for _, sum := range out {
		sum.MedSelfUS = median(sum.self)
	}
	return out
}

// traceFileSpans caps how many spans a trace file lists; the summary always
// covers every span recorded.
const traceFileSpans = 20000

type traceSpanJSON struct {
	ID      uint32  `json:"id"`
	Parent  uint32  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Req     uint64  `json:"req"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
	Bytes   int     `json:"bytes,omitempty"`
}

// writeTrace writes out/trace-<workload>.json: a per-name summary of every
// span and the first traceFileSpans spans in recording order.
func writeTrace(dir, workload string, spans []span) error {
	self := selfTimes(spans)
	sums := summarize(spans)
	var doc struct {
		Workload string          `json:"workload"`
		Recorded int             `json:"spans_recorded"`
		Listed   int             `json:"spans_listed"`
		Summary  []*spanSummary  `json:"summary"`
		Spans    []traceSpanJSON `json:"spans"`
	}
	doc.Workload, doc.Recorded = workload, len(spans)
	for name := range uint8(numSpanNames) {
		if s := sums[name]; s != nil {
			doc.Summary = append(doc.Summary, s)
		}
	}
	for i, s := range spans[:min(len(spans), traceFileSpans)] {
		doc.Spans = append(doc.Spans, traceSpanJSON{
			ID: s.ID, Parent: s.Parent, Name: spanNames[s.Name], Req: s.Req,
			StartUS: float64(s.Start) / 1e3, EndUS: float64(s.End) / 1e3,
			SelfUS: float64(self[i]) / 1e3, Bytes: s.Bytes,
		})
	}
	doc.Listed = len(doc.Spans)
	return writeJSON(filepath.Join(dir, "trace-"+workload+".json"), doc)
}

// writeJSON writes v indented to path, creating the directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
