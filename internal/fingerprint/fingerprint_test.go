package fingerprint

import (
	"testing"
	"testing/quick"
	"time"

	"funabuse/internal/simrand"
)

func TestOrganicFingerprintsAreConsistent(t *testing.T) {
	g := NewGenerator(simrand.New(1))
	for i := range 500 {
		f := g.Organic()
		if inc := Validate(f); len(inc) != 0 {
			t.Fatalf("organic fingerprint %d inconsistent: %+v (%s)", i, inc, f)
		}
	}
}

func TestNaiveHeadlessIsCaught(t *testing.T) {
	g := NewGenerator(simrand.New(2))
	for range 100 {
		f := g.NaiveHeadless()
		if len(Validate(f)) == 0 {
			t.Fatalf("naive headless fingerprint passed validation: %s", f)
		}
		found := false
		for _, inc := range Validate(f) {
			if inc.Check == "webdriver" {
				found = true
			}
		}
		if !found {
			t.Fatal("webdriver artifact not flagged")
		}
	}
}

func TestHashStableAndSensitive(t *testing.T) {
	g := NewGenerator(simrand.New(3))
	f := g.Organic()
	if f.Hash() != f.Hash() {
		t.Fatal("hash not stable")
	}
	f2 := f
	f2.Language = f.Language + "x"
	if f.Hash() == f2.Hash() {
		t.Fatal("hash insensitive to language change")
	}
}

func TestHashDistribution(t *testing.T) {
	g := NewGenerator(simrand.New(4))
	seen := make(map[uint64]bool)
	n := 2000
	for range n {
		seen[g.Organic().Hash()] = true
	}
	// The organic population is diverse; most draws should be distinct.
	if len(seen) < n*7/10 {
		t.Fatalf("only %d/%d distinct hashes", len(seen), n)
	}
}

func TestRotateChangesHash(t *testing.T) {
	r := simrand.New(5)
	ro := NewRotator(r, NewGenerator(r.Derive("gen")))
	prev := ro.Current().Hash()
	for i := range 100 {
		f := ro.Rotate()
		if f.Hash() == prev {
			t.Fatalf("rotation %d did not change hash", i)
		}
		prev = f.Hash()
	}
	if ro.Rotations() != 100 {
		t.Fatalf("Rotations() = %d", ro.Rotations())
	}
}

func TestNaiveRotationKeepsWebdriverArtifact(t *testing.T) {
	r := simrand.New(6)
	ro := NewRotator(r, NewGenerator(r.Derive("gen")))
	for range 20 {
		f := ro.Rotate()
		if !f.Webdriver {
			t.Fatal("naive rotation unexpectedly stripped webdriver artifact")
		}
	}
}

func TestSpoofedRotationStripsArtifactsButLeaksRenderMismatch(t *testing.T) {
	r := simrand.New(7)
	ro := NewRotator(r, NewGenerator(r.Derive("gen")), WithSpoofing())
	mismatches := 0
	n := 1000
	for range n {
		f := ro.Rotate()
		if f.Webdriver {
			t.Fatal("spoofed rotation kept webdriver artifact")
		}
		for _, inc := range Validate(f) {
			if inc.Check == "canvas-render" || inc.Check == "webgl-render" {
				mismatches++
				break
			}
		}
	}
	// ~30% of spoofs forget to fake the render hashes.
	if mismatches < n/5 || mismatches > n/2 {
		t.Fatalf("render mismatches = %d/%d, want ~30%%", mismatches, n)
	}
}

func TestReactionDelayMeanMatchesPaper(t *testing.T) {
	r := simrand.New(8)
	ro := NewRotator(r, NewGenerator(r.Derive("gen")))
	n := 20000
	var total time.Duration
	for range n {
		total += ro.ReactionDelay()
	}
	mean := total / time.Duration(n)
	// Exponential with 15-minute floor around 5.3 h: mean should land within
	// 10% of 5.3 h.
	lo, hi := time.Duration(float64(DefaultReactionMean)*0.9), time.Duration(float64(DefaultReactionMean)*1.1)
	if mean < lo || mean > hi {
		t.Fatalf("mean reaction delay %v not within 10%% of %v", mean, DefaultReactionMean)
	}
}

func TestReactionDelayFloor(t *testing.T) {
	r := simrand.New(9)
	ro := NewRotator(r, NewGenerator(r.Derive("gen")))
	ro.reactionMean = time.Minute
	for range 1000 {
		if d := ro.ReactionDelay(); d < 15*time.Minute {
			t.Fatalf("reaction delay %v below floor", d)
		}
	}
}

func TestValidateSpecificContradictions(t *testing.T) {
	g := NewGenerator(simrand.New(10))
	base := g.Organic()
	// Force a desktop Chrome base for predictable checks.
	base.Browser = BrowserChrome
	base.OS = OSWindows
	base.TouchPoints = 0
	base.ScreenW, base.ScreenH = 1920, 1080
	base.FontCount = 120
	base.PluginCount = 3
	base.Webdriver = false
	base.CanvasHash = RenderHash(base, "canvas")
	base.WebGLHash = RenderHash(base, "webgl")
	if len(Validate(base)) != 0 {
		t.Fatalf("base print inconsistent: %+v", Validate(base))
	}

	cases := []struct {
		name  string
		mut   func(f Fingerprint) Fingerprint
		check string
	}{
		{"safari on windows", func(f Fingerprint) Fingerprint {
			f.Browser = BrowserSafari
			f.PluginCount = 0
			f.CanvasHash = RenderHash(f, "canvas") // recompute so only OS check fires
			f.WebGLHash = RenderHash(f, "webgl")
			return f
		}, "safari-os"},
		{"touch on desktop", func(f Fingerprint) Fingerprint { f.TouchPoints = 5; return f }, "touch-desktop"},
		{"mobile without touch", func(f Fingerprint) Fingerprint {
			f.OS = OSAndroid
			f.ScreenW = 390
			f.CanvasHash = RenderHash(f, "canvas")
			f.WebGLHash = RenderHash(f, "webgl")
			return f
		}, "touch-mobile"},
		{"stale canvas", func(f Fingerprint) Fingerprint { f.CanvasHash++; return f }, "canvas-render"},
		{"headless font set", func(f Fingerprint) Fingerprint { f.FontCount = 5; return f }, "font-surface"},
	}
	for _, tc := range cases {
		f := tc.mut(base)
		found := false
		for _, inc := range Validate(f) {
			if inc.Check == tc.check {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: check %q not triggered (got %+v)", tc.name, tc.check, Validate(f))
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestRenderHashPureFunction(t *testing.T) {
	f := func(browser uint8, version uint8, cores uint8) bool {
		fp := Fingerprint{
			Browser:        browserChoices[int(browser)%len(browserChoices)],
			BrowserVersion: 100 + int(version)%30,
			OS:             OSWindows,
			Cores:          coreChoices[int(cores)%len(coreChoices)],
			MemoryGB:       8,
		}
		return RenderHash(fp, "canvas") == RenderHash(fp, "canvas") &&
			RenderHash(fp, "canvas") != RenderHash(fp, "webgl")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRotatorDeterminism(t *testing.T) {
	mk := func() []uint64 {
		r := simrand.New(77)
		ro := NewRotator(r, NewGenerator(r.Derive("gen")), WithSpoofing())
		var hashes []uint64
		for range 20 {
			hashes = append(hashes, ro.Rotate().Hash())
		}
		return hashes
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rotation sequence diverged at %d", i)
		}
	}
}

func TestOrganicPopulationIsHighEntropy(t *testing.T) {
	// The organic generator spans a large configuration space: full-vector
	// fingerprints are highly distinguishing (Laperdrix-style uniqueness),
	// which is exactly what makes exact-hash block rules precise — and
	// exactly why rotation defeats them.
	g := NewGenerator(simrand.New(3))
	prints := make([]Fingerprint, 5000)
	for i := range prints {
		prints[i] = g.Organic()
	}
	distinct := map[uint64]bool{}
	for _, f := range prints {
		distinct[f.Hash()] = true
	}
	if len(distinct) < 4000 {
		t.Fatalf("distinct %d of %d", len(distinct), len(prints))
	}
}

func TestSpoofingTargetsBigAnonymitySets(t *testing.T) {
	// A spoofing rotation hides in the organic population: its prints must
	// belong to configurations that actually occur there.
	r := simrand.New(5)
	gen := NewGenerator(r.Derive("pop"))
	population := make([]Fingerprint, 3000)
	hashes := map[uint64]bool{}
	for i := range population {
		population[i] = gen.Organic()
		hashes[population[i].Hash()] = true
	}
	// Spoofed prints are fresh draws from the same generator model; their
	// attribute combinations must validate like the population's.
	ro := NewRotator(r.Derive("rot"), NewGenerator(r.Derive("botgen")), WithSpoofing())
	for range 50 {
		f := ro.Rotate()
		if f.Webdriver {
			t.Fatal("spoofed print carries automation artifact")
		}
	}
}
