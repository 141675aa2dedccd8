package obs

import (
	"sync"
	"time"
)

// Span is one decision trace: a single request's pass through the gate's
// layers, journaled with its latency and verdict. Spans are small value
// records — the ring copies them into preallocated slots, so recording
// allocates nothing.
type Span struct {
	// Seq is the record's position in the journal's lifetime (1-based);
	// gaps never occur, so Seq jumps reveal nothing — overwritten spans
	// are simply no longer retrievable.
	Seq uint64 `json:"seq"`
	// Start is when the decision began.
	Start time.Time `json:"start"`
	// Dur is the decision latency.
	Dur time.Duration `json:"dur_ns"`
	// Path is the request path the decision was made for.
	Path string `json:"path"`
	// Verdict is "admit" or the denial reason (httpgate.Reason*).
	Verdict string `json:"verdict"`
	// Degraded lists the layers (comma-separated) that were unavailable
	// during this decision; empty on healthy decisions.
	Degraded string `json:"degraded,omitempty"`
}

// VerdictAdmit is the Span.Verdict for admitted requests.
const VerdictAdmit = "admit"

// TraceRing is a bounded ring-buffer journal of decision spans: the most
// recent capacity spans survive, older ones are overwritten. Recording is
// a slot copy under a short mutex — no allocation — so it can sit on the
// serving path; Snapshot copies out for /debug/traces.
type TraceRing struct {
	mu   sync.Mutex
	buf  []Span
	next uint64 // total spans ever recorded
}

// DefaultTraceCapacity is the span count NewTraceRing uses for n <= 0.
const DefaultTraceCapacity = 1024

// NewTraceRing returns a ring holding the last n spans (n <= 0 selects
// DefaultTraceCapacity).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = DefaultTraceCapacity
	}
	return &TraceRing{buf: make([]Span, n)}
}

// Record journals one span, overwriting the oldest once full. The span's
// Seq is assigned by the ring.
func (t *TraceRing) Record(s Span) {
	t.mu.Lock()
	t.next++
	s.Seq = t.next
	t.buf[(t.next-1)%uint64(len(t.buf))] = s
	t.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (t *TraceRing) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.buf))
	count := t.next
	if count > n {
		count = n
	}
	out := make([]Span, 0, count)
	for i := uint64(0); i < count; i++ {
		out = append(out, t.buf[(t.next-count+i)%n])
	}
	return out
}

// Total returns how many spans were ever recorded (including ones the
// ring has since overwritten).
func (t *TraceRing) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}
