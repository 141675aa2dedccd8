package biometric

import (
	"testing"
	"testing/quick"

	"funabuse/internal/simrand"
)

func TestHumanTracesPass(t *testing.T) {
	g := NewGenerator(simrand.New(1))
	d := NewDetector()
	flagged := 0
	n := 500
	for range n {
		tr := g.Generate(ClassHuman, 4, 30)
		if v := d.Judge(tr); v.Flagged {
			flagged++
		}
	}
	// Humans should rarely trip the thresholds.
	if rate := float64(flagged) / float64(n); rate > 0.03 {
		t.Fatalf("human false-positive rate %v", rate)
	}
}

func TestProgrammaticFillCaught(t *testing.T) {
	g := NewGenerator(simrand.New(2))
	d := NewDetector()
	for range 200 {
		v := d.Judge(g.Generate(ClassProgrammatic, 4, 30))
		if !v.Flagged {
			t.Fatal("programmatic fill passed")
		}
		if v.Reason != "no-keystrokes" {
			t.Fatalf("reason %q", v.Reason)
		}
	}
}

func TestScriptedTypingCaught(t *testing.T) {
	g := NewGenerator(simrand.New(3))
	d := NewDetector()
	reasons := map[string]int{}
	for range 200 {
		v := d.Judge(g.Generate(ClassScripted, 4, 30))
		if !v.Flagged {
			t.Fatal("scripted typing passed")
		}
		reasons[v.Reason]++
	}
	if reasons["uniform-typing"]+reasons["superhuman-fill-time"]+reasons["straight-pointer"] != 200 {
		t.Fatalf("unexpected reasons %v", reasons)
	}
}

func TestReplayEvadesThresholdsButNotCorrelation(t *testing.T) {
	g := NewGenerator(simrand.New(4))
	d := NewDetector()
	rd := NewReplayDetector(512)

	thresholdFlags, replayFlags := 0, 0
	n := 300
	for range n {
		tr := g.Generate(ClassReplay, 4, 30)
		if d.Judge(tr).Flagged {
			thresholdFlags++
		}
		if rd.Observe(tr) {
			replayFlags++
		}
	}
	// Replayed human traces look human to the static thresholds...
	if rate := float64(thresholdFlags) / float64(n); rate > 0.1 {
		t.Fatalf("thresholds flagged %v of replays; replay should evade them", rate)
	}
	// ...but the correlation detector catches the reuse once the pool of
	// distinct recordings (5) is exhausted.
	if rate := float64(replayFlags) / float64(n); rate < 0.7 {
		t.Fatalf("replay detector caught only %v", rate)
	}
}

func TestReplayDetectorIgnoresIndependentHumans(t *testing.T) {
	g := NewGenerator(simrand.New(5))
	rd := NewReplayDetector(512)
	flagged := 0
	n := 300
	for range n {
		if rd.Observe(g.Generate(ClassHuman, 4, 30)) {
			flagged++
		}
	}
	if flagged > n/50 {
		t.Fatalf("replay detector flagged %d/%d independent humans", flagged, n)
	}
}

func TestExtractFeatures(t *testing.T) {
	tr := Trace{
		KeyIntervalsMs:   []float64{100, 200, 100, 200},
		FieldDwellMs:     []float64{1000, 3000},
		Backspaces:       1,
		PointerPathRatio: 1.3,
		FillTimeMs:       5000,
	}
	f := Extract(tr)
	if f.Keystrokes != 5 {
		t.Fatalf("Keystrokes = %d", f.Keystrokes)
	}
	if f.KeyIntervalCV <= 0.3 || f.KeyIntervalCV >= 0.4 {
		t.Fatalf("KeyIntervalCV = %v, want 50/150", f.KeyIntervalCV)
	}
}

func TestExtractEmptyTrace(t *testing.T) {
	f := Extract(Trace{})
	if f.Keystrokes != 1 || f.KeyIntervalCV != 0 {
		t.Fatalf("empty trace features %+v", f)
	}
}

func TestSimilarityProperties(t *testing.T) {
	selfSimilar := func(seed uint64) bool {
		r := simrand.New(seed)
		a := make([]float64, 20)
		for i := range a {
			a[i] = 50 + r.Float64()*300
		}
		return similarity(a, a) > 0.999
	}
	if err := quick.Check(selfSimilar, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	// Short or mismatched-length sequences score zero.
	if similarity([]float64{1, 2}, []float64{1, 2}) != 0 {
		t.Fatal("short sequences scored")
	}
	long := make([]float64, 30)
	short := make([]float64, 10)
	for i := range long {
		long[i] = float64(i)
	}
	for i := range short {
		short[i] = float64(i)
	}
	if similarity(long, short) != 0 {
		t.Fatal("mismatched lengths scored")
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		ClassHuman:        "human",
		ClassProgrammatic: "programmatic",
		ClassScripted:     "scripted",
		ClassReplay:       "replay",
		Class(9):          "unknown",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q", int(c), c.String())
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(simrand.New(7)).Generate(ClassHuman, 4, 30)
	b := NewGenerator(simrand.New(7)).Generate(ClassHuman, 4, 30)
	if len(a.KeyIntervalsMs) != len(b.KeyIntervalsMs) || a.FillTimeMs != b.FillTimeMs {
		t.Fatal("generator not deterministic")
	}
}

func TestGenerateDefaults(t *testing.T) {
	g := NewGenerator(simrand.New(8))
	tr := g.Generate(ClassHuman, 0, 0)
	if len(tr.FieldDwellMs) != 3 {
		t.Fatalf("default fields %d", len(tr.FieldDwellMs))
	}
	if len(tr.KeyIntervalsMs) != 19 {
		t.Fatalf("default chars produced %d intervals", len(tr.KeyIntervalsMs))
	}
}
