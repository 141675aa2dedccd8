package fingerprint

import (
	"time"

	"funabuse/internal/simrand"
)

// Rotator implements the fingerprint-rotation evasion the paper measured:
// the Airline A attackers presented a new identity "within an average of
// 5.3 hours" of each new blocking rule. The rotator supports both
// time-driven rotation and reactive rotation after a block.
type Rotator struct {
	rng *simrand.RNG
	gen *Generator

	current Fingerprint
	// reactionMean is the mean delay between being blocked and presenting
	// a rotated fingerprint. The paper's measured mean is 5.3 h.
	reactionMean time.Duration
	rotations    int
	spoof        bool
}

// RotatorOption configures a Rotator.
type RotatorOption func(*Rotator)

// WithSpoofing makes rotations draw from the organic population (mimicking
// real users) instead of perturbing attributes, and strips automation
// artifacts. Spoofed prints blend into common configurations but risk
// internal inconsistencies that Validate can catch.
func WithSpoofing() RotatorOption {
	return func(ro *Rotator) { ro.spoof = true }
}

// DefaultReactionMean matches the paper's measured 5.3-hour average
// fingerprint-rotation interval.
const DefaultReactionMean = 5*time.Hour + 18*time.Minute

// NewRotator returns a Rotator starting from an initial fingerprint drawn
// from gen.
func NewRotator(r *simrand.RNG, gen *Generator, opts ...RotatorOption) *Rotator {
	ro := &Rotator{
		rng:          r,
		gen:          gen,
		reactionMean: DefaultReactionMean,
	}
	for _, opt := range opts {
		opt(ro)
	}
	if ro.spoof {
		ro.current = gen.Organic()
	} else {
		ro.current = gen.NaiveHeadless()
	}
	return ro
}

// Current returns the fingerprint currently presented.
func (ro *Rotator) Current() Fingerprint { return ro.current }

// Rotations returns how many times the identity has changed.
func (ro *Rotator) Rotations() int { return ro.rotations }

// ReactionDelay draws the delay between a block and the next rotation.
// Delays are exponential around the configured mean, floored at 15 minutes:
// even a fully automated operation needs time to notice the block and
// redeploy.
func (ro *Rotator) ReactionDelay() time.Duration {
	const floor = 15 * time.Minute
	d := time.Duration(ro.rng.Exp(float64(ro.reactionMean)))
	if d < floor {
		d = floor
	}
	return d
}

// Rotate presents a new identity and returns it. In spoof mode the new
// print is a fresh draw from the organic population with automation
// artifacts stripped; otherwise it perturbs a handful of attributes, the
// cheap rotation commodity bots perform.
func (ro *Rotator) Rotate() Fingerprint {
	ro.rotations++
	if ro.spoof {
		f := ro.gen.Organic()
		f.Webdriver = false
		// Spoofing overwrites the reported attributes but the underlying
		// stack still renders with the bot's real configuration — the
		// inconsistency window Validate exploits. With probability 0.7 the
		// operator remembers to also fake the render hashes.
		if !ro.rng.Bool(0.7) {
			f.CanvasHash = RenderHash(ro.current, "canvas")
			f.WebGLHash = RenderHash(ro.current, "webgl")
		}
		ro.current = f
		return f
	}
	f := ro.current
	// Perturb 2-4 attributes.
	n := 2 + ro.rng.Intn(3)
	for range n {
		switch ro.rng.Intn(6) {
		case 0:
			f.BrowserVersion = 100 + ro.rng.Intn(30)
		case 1:
			f.Language = simrand.Pick(ro.rng, languages)
		case 2:
			f.Timezone = simrand.Pick(ro.rng, timezones)
		case 3:
			sc := desktopScreens[ro.rng.Intn(len(desktopScreens))]
			f.ScreenW, f.ScreenH = sc.w, sc.h
		case 4:
			f.FontCount = 4 + ro.rng.Intn(240)
		case 5:
			f.Cores = coreChoices[ro.rng.Intn(len(coreChoices))]
		}
	}
	f.CanvasHash = RenderHash(f, "canvas")
	f.WebGLHash = RenderHash(f, "webgl")
	if f.Hash() == ro.current.Hash() {
		// Guarantee the rotation actually changed the identity.
		f.BrowserVersion++
		f.CanvasHash = RenderHash(f, "canvas")
		f.WebGLHash = RenderHash(f, "webgl")
	}
	ro.current = f
	return f
}

// Inconsistency identifies one cross-attribute contradiction in a
// fingerprint.
type Inconsistency struct {
	// Check is a short machine-readable name.
	Check string
}

// Validate runs the consistency checks (in the spirit of FP-inconsistent)
// and returns every contradiction found. An organic fingerprint returns
// none.
func Validate(f Fingerprint) []Inconsistency {
	var out []Inconsistency
	add := func(check string) {
		out = append(out, Inconsistency{Check: check})
	}

	if f.Webdriver {
		add("webdriver")
	}
	mobile := f.OS == OSAndroid || f.OS == OSIOS
	if mobile && f.TouchPoints == 0 {
		add("touch-mobile")
	}
	if !mobile && f.TouchPoints > 0 {
		add("touch-desktop")
	}
	if mobile && f.ScreenW > 1000 {
		add("screen-mobile")
	}
	if !mobile && f.ScreenW < 1000 {
		add("screen-desktop")
	}
	if f.Browser == BrowserSafari && (f.OS == OSWindows || f.OS == OSLinux || f.OS == OSAndroid) {
		add("safari-os")
	}
	if f.Browser == BrowserEdge && (f.OS == OSLinux || f.OS == OSAndroid || f.OS == OSIOS) {
		add("edge-os")
	}
	if f.Browser == BrowserSafari && f.PluginCount > 0 {
		add("safari-plugins")
	}
	if f.CanvasHash != RenderHash(f, "canvas") {
		add("canvas-render")
	}
	if f.WebGLHash != RenderHash(f, "webgl") {
		add("webgl-render")
	}
	if f.FontCount < 10 && !mobile {
		add("font-surface")
	}
	return out
}
