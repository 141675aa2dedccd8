// Package fingerprint models browser/device fingerprints and the
// evasion-versus-detection dynamics the paper describes: attackers rotate or
// spoof their fingerprints to defeat knowledge-based blocking, while
// defenders hash fingerprints into block rules and hunt for internal
// inconsistencies in manipulated ones.
//
// A fingerprint here is a typed attribute vector rather than raw HTTP
// headers: the detection/evasion dynamics depend only on distinguishability,
// rotation cadence, and cross-attribute consistency, all of which the vector
// form preserves.
package fingerprint

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"funabuse/internal/simrand"
)

// Browser families observed in the simulated population.
const (
	BrowserChrome  = "Chrome"
	BrowserFirefox = "Firefox"
	BrowserSafari  = "Safari"
	BrowserEdge    = "Edge"
)

// Operating systems observed in the simulated population.
const (
	OSWindows = "Windows"
	OSMacOS   = "macOS"
	OSLinux   = "Linux"
	OSAndroid = "Android"
	OSIOS     = "iOS"
)

// Fingerprint is the attribute vector a client presents. Comparable by
// value; Hash gives the canonical identifier used in block rules.
type Fingerprint struct {
	Browser        string
	BrowserVersion int
	OS             string
	ScreenW        int
	ScreenH        int
	Timezone       string
	Language       string
	Cores          int
	MemoryGB       int
	TouchPoints    int
	CanvasHash     uint32
	WebGLHash      uint32
	FontCount      int
	PluginCount    int
	// Webdriver reports the navigator.webdriver instrumentation artifact
	// left by naive headless automation.
	Webdriver bool
}

// FNV-1a 64-bit parameters (hash/fnv's, spelled out so Hash needs no
// hash.Hash64 on the heap).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a stable 64-bit digest of the full attribute vector: FNV-1a
// over every field in declaration order, each followed by a zero byte —
// strings raw, ints in decimal, the two render hashes in lower-case hex,
// Webdriver as "true"/"false". Block rules, weblog lines and the goldens
// are keyed on this value, so the byte stream is a contract
// (TestFingerprintHashMatchesFNV pins it against hash/fnv).
func (f Fingerprint) Hash() uint64 {
	h := uint64(fnvOffset64)
	h = hashField(h, f.Browser)
	h = hashInt(h, f.BrowserVersion)
	h = hashField(h, f.OS)
	h = hashInt(h, f.ScreenW)
	h = hashInt(h, f.ScreenH)
	h = hashField(h, f.Timezone)
	h = hashField(h, f.Language)
	h = hashInt(h, f.Cores)
	h = hashInt(h, f.MemoryGB)
	h = hashInt(h, f.TouchPoints)
	h = hashHex(h, f.CanvasHash)
	h = hashHex(h, f.WebGLHash)
	h = hashInt(h, f.FontCount)
	h = hashInt(h, f.PluginCount)
	if f.Webdriver {
		return hashField(h, "true")
	}
	return hashField(h, "false")
}

// hashField folds one field's bytes and the zero separator into h.
func hashField[T string | []byte](h uint64, field T) uint64 {
	for i := 0; i < len(field); i++ {
		h = (h ^ uint64(field[i])) * fnvPrime64
	}
	return h * fnvPrime64 // separator: (h ^ 0) * prime
}

// hashInt folds the decimal form of v and the separator into h. The
// scratch array fits any int64 with its sign and never escapes.
func hashInt(h uint64, v int) uint64 {
	var buf [20]byte
	return hashField(h, strconv.AppendInt(buf[:0], int64(v), 10))
}

// hashHex folds the lower-case hex form of v and the separator into h.
func hashHex(h uint64, v uint32) uint64 {
	var buf [20]byte
	return hashField(h, strconv.AppendUint(buf[:0], uint64(v), 16))
}

// String renders a short human-readable summary.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%s/%d on %s %dx%d tz=%s lang=%s",
		f.Browser, f.BrowserVersion, f.OS, f.ScreenW, f.ScreenH, f.Timezone, f.Language)
}

type screen struct{ w, h int }

// Population-calibrated attribute marginals. Weights approximate public
// browser/OS market-share shapes; exact values are immaterial — what matters
// for the experiments is that some configurations are common (good spoof
// targets) and the long tail is rare.
var (
	browserChoices = []string{BrowserChrome, BrowserFirefox, BrowserSafari, BrowserEdge}
	browserWeights = []float64{0.63, 0.07, 0.20, 0.10}

	osByBrowser = map[string][]string{
		BrowserChrome:  {OSWindows, OSMacOS, OSLinux, OSAndroid},
		BrowserFirefox: {OSWindows, OSMacOS, OSLinux},
		BrowserSafari:  {OSMacOS, OSIOS},
		BrowserEdge:    {OSWindows, OSMacOS},
	}
	osWeightsByBrowser = map[string][]float64{
		BrowserChrome:  {0.55, 0.15, 0.05, 0.25},
		BrowserFirefox: {0.70, 0.15, 0.15},
		BrowserSafari:  {0.40, 0.60},
		BrowserEdge:    {0.92, 0.08},
	}

	desktopScreens = []screen{{1920, 1080}, {1366, 768}, {1536, 864}, {2560, 1440}, {1440, 900}, {1280, 720}}
	desktopWeights = []float64{0.35, 0.18, 0.12, 0.12, 0.13, 0.10}
	mobileScreens  = []screen{{390, 844}, {393, 873}, {412, 915}, {360, 800}, {414, 896}}
	mobileWeights  = []float64{0.25, 0.20, 0.20, 0.20, 0.15}

	timezones = []string{
		"Europe/Paris", "Europe/London", "America/New_York", "Asia/Singapore",
		"Asia/Shanghai", "Asia/Bangkok", "Europe/Madrid", "America/Sao_Paulo",
		"Asia/Tokyo", "Australia/Sydney",
	}
	languages = []string{"en-US", "en-GB", "fr-FR", "de-DE", "es-ES", "zh-CN", "th-TH", "pt-BR", "ja-JP", "it-IT"}

	coreChoices = []int{2, 4, 8, 12, 16}
	coreWeights = []float64{0.10, 0.40, 0.35, 0.10, 0.05}
	memChoices  = []int{4, 8, 16, 32}
	memWeights  = []float64{0.20, 0.45, 0.30, 0.05}
)

// Generator draws fingerprints from the simulated user population.
type Generator struct {
	rng      *simrand.RNG
	browser  *simrand.Categorical
	desktop  *simrand.Categorical
	mobile   *simrand.Categorical
	cores    *simrand.Categorical
	memory   *simrand.Categorical
	osChoice map[string]*simrand.Categorical
}

// NewGenerator returns a Generator drawing from r.
func NewGenerator(r *simrand.RNG) *Generator {
	osChoice := make(map[string]*simrand.Categorical, len(osByBrowser))
	for b, ws := range osWeightsByBrowser {
		osChoice[b] = simrand.NewCategorical(ws)
	}
	return &Generator{
		rng:      r,
		browser:  simrand.NewCategorical(browserWeights),
		desktop:  simrand.NewCategorical(desktopWeights),
		mobile:   simrand.NewCategorical(mobileWeights),
		cores:    simrand.NewCategorical(coreWeights),
		memory:   simrand.NewCategorical(memWeights),
		osChoice: osChoice,
	}
}

// Organic returns a consistent fingerprint as a real browser would present.
func (g *Generator) Organic() Fingerprint {
	browser := browserChoices[g.browser.Draw(g.rng)]
	os := osByBrowser[browser][g.osChoice[browser].Draw(g.rng)]
	mobile := os == OSAndroid || os == OSIOS

	var sc screen
	if mobile {
		sc = mobileScreens[g.mobile.Draw(g.rng)]
	} else {
		sc = desktopScreens[g.desktop.Draw(g.rng)]
	}
	touch := 0
	if mobile {
		touch = 5
	}
	f := Fingerprint{
		Browser:        browser,
		BrowserVersion: 100 + g.rng.Intn(30),
		OS:             os,
		ScreenW:        sc.w,
		ScreenH:        sc.h,
		Timezone:       simrand.Pick(g.rng, timezones),
		Language:       simrand.Pick(g.rng, languages),
		Cores:          coreChoices[g.cores.Draw(g.rng)],
		MemoryGB:       memChoices[g.memory.Draw(g.rng)],
		TouchPoints:    touch,
		FontCount:      40 + g.rng.Intn(200),
		PluginCount:    g.pluginsFor(browser),
	}
	f.CanvasHash = g.renderHash(f, "canvas")
	f.WebGLHash = g.renderHash(f, "webgl")
	return f
}

// NaiveHeadless returns the fingerprint a vanilla instrumentation framework
// presents: a consistent body but with the webdriver artifact set and the
// sparse font/plugin surface of a headless build. This is what trivial
// knowledge-based checks catch.
func (g *Generator) NaiveHeadless() Fingerprint {
	f := g.Organic()
	f.OS = OSLinux
	f.Browser = BrowserChrome
	f.Webdriver = true
	f.FontCount = 4 + g.rng.Intn(6)
	f.PluginCount = 0
	f.TouchPoints = 0
	f.CanvasHash = g.renderHash(f, "canvas")
	f.WebGLHash = g.renderHash(f, "webgl")
	return f
}

// pluginsFor returns a plausible navigator.plugins length.
func (g *Generator) pluginsFor(browser string) int {
	if browser == BrowserSafari {
		return 0
	}
	return 2 + g.rng.Intn(4)
}

// renderHash derives the canvas/WebGL rendering hash from the hardware- and
// software-determining attributes. Two clients with identical stacks render
// identically, which is what lets the consistency validator spot spoofed
// attribute combinations whose rendering does not match.
func (g *Generator) renderHash(f Fingerprint, surface string) uint32 {
	return RenderHash(f, surface)
}

// RenderHash is the deterministic rendering function of the simulated
// graphics stack: a pure function of (browser, version band, OS, cores,
// memory) and the surface name.
func RenderHash(f Fingerprint, surface string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(surface))
	_, _ = h.Write([]byte(f.Browser))
	_, _ = h.Write([]byte(strconv.Itoa(f.BrowserVersion / 10))) // version band
	_, _ = h.Write([]byte(f.OS))
	_, _ = h.Write([]byte(strconv.Itoa(f.Cores)))
	_, _ = h.Write([]byte(strconv.Itoa(f.MemoryGB)))
	return h.Sum32()
}
