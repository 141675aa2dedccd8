// Package biometric implements the behavioural-biometric detection the
// paper's Section V calls for as future work: modelling *how* a form is
// filled rather than how many requests a session makes. Low-volume
// functional abuse is invisible to volume features, but every reservation
// still requires entering passenger details — and the micro-dynamics of
// that interaction (inter-keystroke timing variance, corrections, pointer
// paths, field dwell) separate humans from automation even at one request
// per half hour.
//
// The package provides interaction traces, generators for the behaviour
// classes observed in the wild (human, programmatic fill, scripted delays,
// replayed human recordings), the feature extraction, and a threshold
// detector with interpretable verdicts.
package biometric

import (
	"math"

	"funabuse/internal/simrand"
)

// Trace is the client-side interaction record accompanying one form
// submission, as a behavioural collector script would report it.
type Trace struct {
	// KeyIntervalsMs are the delays between successive keystrokes.
	KeyIntervalsMs []float64
	// FieldDwellMs is the time spent focused on each form field.
	FieldDwellMs []float64
	// Backspaces counts correction keys pressed.
	Backspaces int
	// PointerPathRatio is travelled pointer distance divided by the
	// straight-line distance between interaction points; humans curve
	// (ratio > 1), programmatic pointers teleport or move straight
	// (ratio ~ 0 or exactly 1).
	PointerPathRatio float64
	// FillTimeMs is the total time from first focus to submit.
	FillTimeMs float64
}

// Features is the numeric summary the detector scores.
type Features struct {
	// KeyIntervalCV is the coefficient of variation of inter-key delays —
	// the single strongest human/bot separator: human typing is noisy,
	// scripted delays are uniform, programmatic fills have no keystrokes
	// at all.
	KeyIntervalCV float64
	PointerCurve  float64
	FillTimeMs    float64
	Keystrokes    int
}

// Extract summarises a trace.
func Extract(tr Trace) Features {
	var f Features
	f.Keystrokes = len(tr.KeyIntervalsMs) + 1
	f.FillTimeMs = tr.FillTimeMs
	f.PointerCurve = tr.PointerPathRatio
	if n := len(tr.KeyIntervalsMs); n > 0 {
		var sum float64
		for _, v := range tr.KeyIntervalsMs {
			sum += v
		}
		mean := sum / float64(n)
		var sq float64
		for _, v := range tr.KeyIntervalsMs {
			d := v - mean
			sq += d * d
		}
		std := math.Sqrt(sq / float64(n))
		if mean > 0 {
			f.KeyIntervalCV = std / mean
		}
	}
	return f
}

// Verdict is the detector's decision with the triggering signal.
type Verdict struct {
	Flagged bool
	Reason  string
}

// Detector applies interpretable thresholds to trace features.
type Detector struct {
	// MinFillTimeMs flags forms completed faster than any human.
	MinFillTimeMs float64
	// MinKeyIntervalCV flags robotically uniform keystroke timing.
	MinKeyIntervalCV float64
	// MinKeystrokes flags programmatic fills that bypass key events.
	MinKeystrokes int
	// MaxPointerStraightness flags pointer paths that are perfectly
	// straight or teleporting (curve ratio at or below 1).
	MaxPointerStraightness float64
}

// NewDetector returns thresholds calibrated to the generators in this
// package (and roughly to the human-typing literature: inter-key CV well
// above 0.3, fill times in the tens of seconds for multi-field forms).
func NewDetector() *Detector {
	return &Detector{
		MinFillTimeMs:          4000,
		MinKeyIntervalCV:       0.25,
		MinKeystrokes:          8,
		MaxPointerStraightness: 1.02,
	}
}

// Judge scores one trace.
func (d *Detector) Judge(tr Trace) Verdict {
	f := Extract(tr)
	switch {
	case f.Keystrokes < d.MinKeystrokes:
		return Verdict{Flagged: true, Reason: "no-keystrokes"}
	case f.FillTimeMs < d.MinFillTimeMs:
		return Verdict{Flagged: true, Reason: "superhuman-fill-time"}
	case f.KeyIntervalCV < d.MinKeyIntervalCV:
		return Verdict{Flagged: true, Reason: "uniform-typing"}
	case f.PointerCurve <= d.MaxPointerStraightness:
		return Verdict{Flagged: true, Reason: "straight-pointer"}
	default:
		return Verdict{}
	}
}

// Class labels the behaviour generators.
type Class int

// Behaviour classes.
const (
	// ClassHuman is genuine interactive form filling.
	ClassHuman Class = iota + 1
	// ClassProgrammatic sets field values via script: no key events, no
	// pointer travel, instant submission.
	ClassProgrammatic
	// ClassScripted types with fixed delays between synthetic key events —
	// the "humanised" automation of commodity bots.
	ClassScripted
	// ClassReplay replays a recorded human trace with light noise — the
	// expensive evasion tier.
	ClassReplay
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassHuman:
		return "human"
	case ClassProgrammatic:
		return "programmatic"
	case ClassScripted:
		return "scripted"
	case ClassReplay:
		return "replay"
	default:
		return "unknown"
	}
}

// Generator produces traces per behaviour class.
type Generator struct {
	rng *simrand.RNG
	// recorded is the human trace pool Replay draws from.
	recorded []Trace
}

// NewGenerator returns a Generator drawing from r.
func NewGenerator(r *simrand.RNG) *Generator {
	return &Generator{rng: r}
}

// Generate returns a trace of the given class for a form with fields
// fields and roughly chars typed characters.
func (g *Generator) Generate(class Class, fields, chars int) Trace {
	if fields < 1 {
		fields = 3
	}
	if chars < 2 {
		chars = 20
	}
	switch class {
	case ClassProgrammatic:
		return g.programmatic(fields)
	case ClassScripted:
		return g.scripted(fields, chars)
	case ClassReplay:
		return g.replay(fields, chars)
	default:
		return g.human(fields, chars)
	}
}

// human: lognormal inter-key intervals (median ~160 ms, heavy tail),
// occasional corrections and thinking pauses, curved pointer travel.
func (g *Generator) human(fields, chars int) Trace {
	tr := Trace{
		KeyIntervalsMs: make([]float64, 0, chars-1),
		FieldDwellMs:   make([]float64, 0, fields),
	}
	var total float64
	for i := 0; i < chars-1; i++ {
		iv := g.rng.LogNormal(math.Log(160), 0.45)
		if g.rng.Bool(0.06) { // thinking pause
			iv += g.rng.Exp(900)
		}
		tr.KeyIntervalsMs = append(tr.KeyIntervalsMs, iv)
		total += iv
	}
	for range fields {
		d := g.rng.LogNormal(math.Log(2600), 0.5)
		tr.FieldDwellMs = append(tr.FieldDwellMs, d)
		total += 350 + g.rng.Float64()*500 // focus transitions
	}
	if g.rng.Bool(0.7) {
		tr.Backspaces = 1 + g.rng.Intn(4)
	}
	tr.PointerPathRatio = 1.15 + g.rng.Float64()*0.5
	tr.FillTimeMs = total
	return tr
}

// programmatic: values injected, instant submit.
func (g *Generator) programmatic(fields int) Trace {
	return Trace{
		FieldDwellMs:     make([]float64, fields), // zero dwell
		PointerPathRatio: 0,
		FillTimeMs:       30 + g.rng.Float64()*60,
	}
}

// scripted: synthetic key events with a fixed delay plus tiny jitter, the
// classic "humanisation" shortcut.
func (g *Generator) scripted(fields, chars int) Trace {
	tr := Trace{
		KeyIntervalsMs: make([]float64, 0, chars-1),
		FieldDwellMs:   make([]float64, 0, fields),
	}
	base := 80 + g.rng.Float64()*60
	var total float64
	for i := 0; i < chars-1; i++ {
		iv := base + g.rng.Float64()*6 // ±3 ms jitter: CV ~ 0.02
		tr.KeyIntervalsMs = append(tr.KeyIntervalsMs, iv)
		total += iv
	}
	dwell := total / float64(fields)
	for range fields {
		tr.FieldDwellMs = append(tr.FieldDwellMs, dwell)
	}
	tr.PointerPathRatio = 1.0 // element.click(): straight to target
	tr.FillTimeMs = total
	return tr
}

// replay: a recorded human trace, re-emitted with light multiplicative
// noise. Builds its recording pool lazily from the human generator.
func (g *Generator) replay(fields, chars int) Trace {
	if len(g.recorded) < 5 {
		g.recorded = append(g.recorded, g.human(fields, chars))
	}
	src := g.recorded[g.rng.Intn(len(g.recorded))]
	tr := Trace{
		KeyIntervalsMs: make([]float64, len(src.KeyIntervalsMs)),
		FieldDwellMs:   make([]float64, len(src.FieldDwellMs)),
		Backspaces:     src.Backspaces,
	}
	var total float64
	for i, v := range src.KeyIntervalsMs {
		tr.KeyIntervalsMs[i] = v * (0.97 + g.rng.Float64()*0.06)
		total += tr.KeyIntervalsMs[i]
	}
	for i, v := range src.FieldDwellMs {
		tr.FieldDwellMs[i] = v * (0.97 + g.rng.Float64()*0.06)
	}
	tr.PointerPathRatio = src.PointerPathRatio * (0.98 + g.rng.Float64()*0.04)
	tr.FillTimeMs = total + 1200
	return tr
}

// ReplayDetector catches replay attacks by correlating traces across
// submissions: two recordings of genuinely independent human sessions are
// never near-identical, so a high similarity between a new trace and any
// previously seen one indicates replay. It keeps a bounded window of
// recent traces per scope (e.g. per flight or per endpoint).
type ReplayDetector struct {
	window int
	seen   []Trace
	// MaxSimilarity is the correlation above which a trace is flagged.
	MaxSimilarity float64
}

// NewReplayDetector returns a detector remembering the last window traces.
func NewReplayDetector(window int) *ReplayDetector {
	if window < 1 {
		window = 256
	}
	return &ReplayDetector{window: window, MaxSimilarity: 0.985}
}

// Observe scores a trace against the recent window, then records it. It
// returns true when the trace is a near-duplicate of an earlier one.
func (d *ReplayDetector) Observe(tr Trace) bool {
	replay := false
	for _, prev := range d.seen {
		if similarity(prev.KeyIntervalsMs, tr.KeyIntervalsMs) > d.MaxSimilarity {
			replay = true
			break
		}
	}
	d.seen = append(d.seen, tr)
	if len(d.seen) > d.window {
		d.seen = d.seen[len(d.seen)-d.window:]
	}
	return replay
}

// similarity is the Pearson correlation of two interval sequences,
// compared over their common prefix; sequences of very different lengths
// score zero.
func similarity(a, b []float64) float64 {
	n := min(len(a), len(b))
	if n < 8 {
		return 0
	}
	if max(len(a), len(b)) > n+2 {
		return 0
	}
	var sumA, sumB float64
	for i := range n {
		sumA += a[i]
		sumB += b[i]
	}
	meanA, meanB := sumA/float64(n), sumB/float64(n)
	var cov, varA, varB float64
	for i := range n {
		da, db := a[i]-meanA, b[i]-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0
	}
	return cov / math.Sqrt(varA*varB)
}
