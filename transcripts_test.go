package funabuse_test

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"funabuse/internal/core"
	"funabuse/internal/runner"
)

// fraudsimTranscript matches a fenced block whose first line runs one load
// scenario at seed 1; the groups are the scenario and the block's body.
var fraudsimTranscript = regexp.MustCompile("(?ms)^```\n\\$ fraudsim -scenario (\\w+) -seed 1\n(.*?)^```")

// figuresTranscript matches a fenced block whose first line runs
// cmd/figures; the groups are the command's flags and the block's body.
var figuresTranscript = regexp.MustCompile("(?ms)^```\n\\$ go run \\./cmd/figures((?: [^\n]*)?)\n(.*?)^```")

// transcriptReplicates is the seed count of every replicate-mode figures
// transcript: few enough seeds for the test to render them.
const transcriptReplicates = 4

// cellGap separates the cells of an aligned table row.
var cellGap = regexp.MustCompile(`\s{2,}`)

// TestTranscriptsMatchGoldens keeps each golden the one home of its
// transcript. Every fenced block in README.md and EXPERIMENTS.md that opens
// with a command is held to what that command prints:
//
//   - `$ fraudsim -scenario <s> -seed 1` must be an in-order subsequence of
//     cmd/fraudsim/testdata/<s>_seed1.golden; progress lines (`fraudsim:
//     ...`, stderr) are ignored.
//   - a single-seed `$ go run ./cmd/figures` must be an in-order excerpt of
//     cmd/figures/testdata/all_seed1.golden, the -csv render: an aligned
//     row matches the golden line holding its cells, separator rows are
//     ignored, and every other line matches as written.
//   - a replicate-mode `$ go run ./cmd/figures` (at transcriptReplicates
//     seeds) must be an in-order subsequence of runner.Run's render of
//     that experiment, rendered once per test; its title line (which names
//     the worker count) and the wall-time line are ignored.
//
// `...` elisions, trailing whitespace and trailing blank lines are ignored
// throughout.
func TestTranscriptsMatchGoldens(t *testing.T) {
	figuresGolden := filepath.Join("cmd", "figures", "testdata", "all_seed1.golden")
	raw, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatal(err)
	}
	figures := transcriptLines(string(raw))
	replicated := map[string][]string{} // experiment id → its replicate render
	blocks := map[string]int{}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fraudsimTranscript.FindAllStringSubmatch(string(raw), -1) {
			blocks["fraudsim"]++
			path := filepath.Join("cmd", "fraudsim", "testdata", m[1]+"_seed1.golden")
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s: %s transcript has no golden: %v", doc, m[1], err)
				continue
			}
			inOrder(t, doc+": "+m[1]+" transcript", path, transcriptLines(m[2]), transcriptLines(string(golden)), func(l string) (string, bool) {
				return l, l != "..." && !strings.HasPrefix(l, "fraudsim: ")
			})
		}
		for _, m := range figuresTranscript.FindAllStringSubmatch(string(raw), -1) {
			blocks["figures"]++
			what := doc + ": figures" + m[1] + " transcript"
			fs := flag.NewFlagSet("figures", flag.ContinueOnError)
			exp := fs.String("exp", "all", "")
			seed := fs.Uint64("seed", 1, "")
			csv := fs.Bool("csv", false, "")
			replicates := fs.Int("replicates", 1, "")
			fs.Int("workers", 0, "")
			if err := fs.Parse(strings.Fields(m[1])); err != nil || *seed != 1 {
				t.Errorf("%s: only seed-1 figures flags are checked (%v)", what, err)
				continue
			}
			body := transcriptLines(m[2])
			if *replicates <= 1 {
				inOrder(t, what, figuresGolden, body, figures, func(l string) (string, bool) {
					if *csv {
						return l, l != "..."
					}
					return csvLine(l)
				})
				continue
			}
			if *replicates != transcriptReplicates || *csv {
				t.Errorf("%s: a replicate transcript runs at -replicates %d without -csv", what, transcriptReplicates)
				continue
			}
			render, ok := replicated[*exp]
			if !ok {
				render = replicateRender(t, *exp)
				replicated[*exp] = render
			}
			inOrder(t, what, "the runner.Run render", body, render, func(l string) (string, bool) {
				return l, l != "..." && !strings.HasPrefix(l, *exp+" — ") && !strings.HasPrefix(l, "replicate wall time: ")
			})
		}
	}
	for _, tool := range []string{"fraudsim", "figures"} {
		if blocks[tool] == 0 {
			t.Errorf("no %s transcripts found in README.md or EXPERIMENTS.md", tool)
		}
	}
}

// transcriptLines splits s into lines with trailing whitespace and
// trailing blank lines dropped.
func transcriptLines(s string) []string {
	lines := strings.Split(strings.TrimRight(s, " \n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	return lines
}

// inOrder fails t unless every line of doc that keep keeps, mapped through
// it, appears in want after the lines before it.
func inOrder(t *testing.T, what, src string, doc, want []string, keep func(string) (string, bool)) {
	t.Helper()
	next := 0
	for _, line := range doc {
		l, ok := keep(line)
		if !ok {
			continue
		}
		for next < len(want) && want[next] != l {
			next++
		}
		if next == len(want) {
			t.Errorf("%s line %q is not in %s after the lines before it", what, line, src)
			return
		}
		next++
	}
}

// csvLine maps one line of an aligned single-seed report to the line the
// -csv render writes for it: an elision or a separator row to none, a row
// of cells to the cells joined by commas (quoted as metrics.Table.CSV
// quotes them), and a note line to itself.
func csvLine(l string) (string, bool) {
	if l == "..." || l != "" && strings.Trim(l, "- ") == "" {
		return "", false
	}
	cells := cellGap.Split(l, -1)
	if len(cells) == 1 {
		return l, true
	}
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"") {
			cells[i] = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
	}
	return strings.Join(cells, ","), true
}

// replicateRender runs exp's replicate sweep at transcriptReplicates seeds
// from seed 1 and returns the table cmd/figures prints for it.
func replicateRender(t *testing.T, exp string) []string {
	fn, ok := core.ExperimentByID(exp)
	if !ok {
		t.Fatalf("no experiment %q", exp)
	}
	sum, err := runner.Run(exp, runner.Config{Replicates: transcriptReplicates, Workers: 2, BaseSeed: 1}, fn)
	if err != nil {
		t.Fatal(err)
	}
	return transcriptLines(sum.Table().String())
}
