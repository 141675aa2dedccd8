package fingerprint

import (
	"hash/fnv"
	"math"
	"strconv"
	"testing"

	"funabuse/internal/simrand"
)

// referenceHash is the original Hash: hash/fnv fed every field's string
// form followed by a zero byte. Hash must stay bit-identical to it — block
// rules, weblog lines and every golden are keyed on the digest.
func referenceHash(f Fingerprint) uint64 {
	h := fnv.New64a()
	write := func(s string) { _, _ = h.Write([]byte(s)); _, _ = h.Write([]byte{0}) }
	write(f.Browser)
	write(strconv.Itoa(f.BrowserVersion))
	write(f.OS)
	write(strconv.Itoa(f.ScreenW))
	write(strconv.Itoa(f.ScreenH))
	write(f.Timezone)
	write(f.Language)
	write(strconv.Itoa(f.Cores))
	write(strconv.Itoa(f.MemoryGB))
	write(strconv.Itoa(f.TouchPoints))
	write(strconv.FormatUint(uint64(f.CanvasHash), 16))
	write(strconv.FormatUint(uint64(f.WebGLHash), 16))
	write(strconv.Itoa(f.FontCount))
	write(strconv.Itoa(f.PluginCount))
	write(strconv.FormatBool(f.Webdriver))
	return h.Sum64()
}

func TestFingerprintHashMatchesFNV(t *testing.T) {
	check := func(name string, f Fingerprint) {
		t.Helper()
		if got, want := f.Hash(), referenceHash(f); got != want {
			t.Fatalf("%s: Hash() = %#x, hash/fnv reference = %#x for %+v", name, got, want, f)
		}
	}

	rng := simrand.New(11)
	gen := NewGenerator(rng.Derive("gen"))
	for range 10000 {
		check("organic", gen.Organic())
	}
	for range 500 {
		check("headless", gen.NaiveHeadless())
	}
	perturb := NewRotator(rng.Derive("perturb"), gen)
	spoof := NewRotator(rng.Derive("spoof"), gen, WithSpoofing())
	for range 2000 {
		check("rotated", perturb.Rotate())
		check("spoofed", spoof.Rotate())
	}

	base := gen.Organic()
	edges := map[string]Fingerprint{
		"zero value":    {},
		"webdriver on":  {Webdriver: true},
		"empty strings": {BrowserVersion: 1, ScreenW: 2, ScreenH: 3, Cores: 4},
		"negative ints": {BrowserVersion: -1, ScreenW: -1920, ScreenH: math.MinInt64, Cores: -8, MemoryGB: -16, TouchPoints: -5, FontCount: -40, PluginCount: -2},
		"max ints":      {BrowserVersion: math.MaxInt64, FontCount: math.MaxInt32, PluginCount: math.MaxInt64},
		"max hashes":    {CanvasHash: math.MaxUint32, WebGLHash: math.MaxUint32},
		"nul in string": {Browser: "Chro\x00me", OS: "\x00", Timezone: "a\x00", Language: "\x00b"},
	}
	for name, f := range edges {
		check(name, f)
	}
	for _, webdriver := range []bool{false, true} {
		f := base
		f.Webdriver = webdriver
		check("webdriver toggle", f)
	}
}

func TestFingerprintHashZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	f := NewGenerator(simrand.New(12)).Organic()
	f.ScreenH = math.MinInt64 // widest decimal the scratch buffer must hold
	var sink uint64
	if avg := testing.AllocsPerRun(200, func() { sink += f.Hash() }); avg != 0 {
		t.Fatalf("Hash allocates %.1f times per call, want 0", avg)
	}
	_ = sink
}
