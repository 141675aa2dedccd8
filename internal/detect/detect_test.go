package detect

import (
	"testing"

	"funabuse/internal/simrand"
	"funabuse/internal/weblog"
)

func TestVolumeRulesFlagHighVolume(t *testing.T) {
	rules := VolumeRules{}
	f := weblog.Features{RequestCount: 500, ReqPerMinute: 100, DurationSec: 300}
	v := rules.Judge(f)
	if !v.Flagged || v.Reason != "request-count" {
		t.Fatalf("verdict %+v", v)
	}
}

func TestVolumeRulesTrapFileWins(t *testing.T) {
	rules := VolumeRules{}
	v := rules.Judge(weblog.Features{RequestCount: 500, TrapHit: true})
	if !v.Flagged || v.Reason != "trap-file" {
		t.Fatalf("verdict %+v", v)
	}
}

func TestVolumeRulesMissLowVolume(t *testing.T) {
	// The paper's core claim: a seat-spinning session issues a handful of
	// requests and sails through volume rules.
	rules := VolumeRules{}
	spinner := weblog.Features{
		RequestCount: 4, ReqPerMinute: 2, UniquePaths: 3,
		DurationSec: 120, MeanGapSec: 40, StdGapSec: 12, GETShare: 0.5, POSTShare: 0.5,
	}
	if v := rules.Judge(spinner); v.Flagged {
		t.Fatalf("low-volume session flagged: %+v", v)
	}
}

func TestVolumeRulesRoboticTiming(t *testing.T) {
	rules := VolumeRules{}
	f := weblog.Features{RequestCount: 30, MeanGapSec: 10, StdGapSec: 0.001, ReqPerMinute: 6}
	v := rules.Judge(f)
	if !v.Flagged || v.Reason != "robotic-timing" {
		t.Fatalf("verdict %+v", v)
	}
}

// synthSamples builds a separable two-class problem: abusive sessions have
// high request counts and rates.
func synthSamples(rng *simrand.RNG, n int) []Sample {
	out := make([]Sample, 0, n)
	for i := range n {
		if i%2 == 0 {
			out = append(out, Sample{
				X: []float64{rng.Normal(300, 40), rng.Normal(60, 8), rng.Normal(120, 20)},
				Y: 1,
			})
		} else {
			out = append(out, Sample{
				X: []float64{rng.Normal(12, 4), rng.Normal(3, 1), rng.Normal(8, 3)},
				Y: 0,
			})
		}
	}
	return out
}

// accuracy is the share of samples m classifies correctly.
func accuracy(m PointModel, samples []Sample) float64 {
	correct := 0
	for _, s := range samples {
		if m.Judge(s.X).Flagged == (s.Y >= 0.5) {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

func TestLogRegSeparatesClasses(t *testing.T) {
	rng := simrand.New(1)
	train := synthSamples(rng.Derive("train"), 400)
	test := synthSamples(rng.Derive("test"), 200)
	m, err := TrainLogReg(rng.Derive("sgd"), train)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, test); acc < 0.97 {
		t.Fatalf("logreg accuracy %v on separable data", acc)
	}
	v := m.Judge(test[0].X)
	if v.Reason != "logreg" {
		t.Fatalf("verdict %+v", v)
	}
}

func TestLogRegErrors(t *testing.T) {
	if _, err := TrainLogReg(simrand.New(1), nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	bad := []Sample{{X: []float64{1, 2}, Y: 0}, {X: []float64{1}, Y: 1}}
	if _, err := TrainLogReg(simrand.New(1), bad); err == nil {
		t.Fatal("inconsistent dimensions accepted")
	}
}

func TestNaiveBayesSeparatesClasses(t *testing.T) {
	rng := simrand.New(2)
	train := synthSamples(rng.Derive("train"), 400)
	test := synthSamples(rng.Derive("test"), 200)
	m, err := TrainNaiveBayes(train)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, test); acc < 0.97 {
		t.Fatalf("naive bayes accuracy %v", acc)
	}
}

func TestNaiveBayesSingleClass(t *testing.T) {
	all0 := []Sample{{X: []float64{1}, Y: 0}, {X: []float64{2}, Y: 0}}
	m, err := TrainNaiveBayes(all0)
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Prob([]float64{1.5}); p != 0 {
		t.Fatalf("prob %v with empty positive class", p)
	}
	all1 := []Sample{{X: []float64{1}, Y: 1}}
	m, err = TrainNaiveBayes(all1)
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Prob([]float64{1.5}); p != 1 {
		t.Fatalf("prob %v with empty negative class", p)
	}
}
