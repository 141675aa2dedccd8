package funabuse_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fraudsimTranscript matches a fenced block whose first line runs one load
// scenario at seed 1; the groups are the scenario and the block's body.
var fraudsimTranscript = regexp.MustCompile("(?ms)^```\n\\$ fraudsim -scenario (\\w+) -seed 1\n(.*?)^```")

// TestTranscriptsMatchGoldens keeps each fraudsim golden the one home of
// its transcript: every fenced `$ fraudsim -scenario <s> -seed 1` block in
// README.md and EXPERIMENTS.md must be an in-order subsequence of
// cmd/fraudsim/testdata/<s>_seed1.golden. Progress lines (`fraudsim: ...`,
// stderr), `...` elisions, trailing whitespace and trailing blank lines
// are ignored; every other line must appear in the golden, in order.
func TestTranscriptsMatchGoldens(t *testing.T) {
	trim := func(s string) []string {
		lines := strings.Split(strings.TrimRight(s, " \n"), "\n")
		for i, l := range lines {
			lines[i] = strings.TrimRight(l, " \t")
		}
		return lines
	}
	blocks := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fraudsimTranscript.FindAllStringSubmatch(string(raw), -1) {
			blocks++
			path := filepath.Join("cmd", "fraudsim", "testdata", m[1]+"_seed1.golden")
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s: %s transcript has no golden: %v", doc, m[1], err)
				continue
			}
			want, next := trim(string(golden)), 0
			for _, line := range trim(m[2]) {
				if line == "..." || strings.HasPrefix(line, "fraudsim: ") {
					continue
				}
				for next < len(want) && want[next] != line {
					next++
				}
				if next == len(want) {
					t.Errorf("%s: %s transcript line %q is not in %s after the lines before it", doc, m[1], line, path)
					break
				}
				next++
			}
		}
	}
	if blocks == 0 {
		t.Fatal("no fraudsim transcripts found in README.md or EXPERIMENTS.md")
	}
}
