package detect

import (
	"errors"
	"math"

	"funabuse/internal/simrand"
)

// ErrNoTrainingData is returned when a model is fit on an empty set.
var ErrNoTrainingData = errors.New("detect: no training data")

// Sample is one labelled feature vector.
type Sample struct {
	X []float64
	// Y is 1 for abusive, 0 for legitimate.
	Y float64
}

// LogReg is a from-scratch logistic-regression classifier trained with
// mini-batch stochastic gradient descent over standardized features.
type LogReg struct {
	weights []float64
	bias    float64
	scaler  scaler
}

// LogRegConfig tunes training.
type LogRegConfig struct {
	Epochs       int
	LearningRate float64
	L2           float64
}

// DefaultLogRegConfig returns settings adequate for session-feature scale
// problems.
func DefaultLogRegConfig() LogRegConfig {
	return LogRegConfig{Epochs: 200, LearningRate: 0.1, L2: 1e-4}
}

// TrainLogReg fits a model on samples. The RNG drives shuffling only, so
// training is deterministic per seed.
func TrainLogReg(rng *simrand.RNG, samples []Sample, cfg LogRegConfig) (*LogReg, error) {
	if len(samples) == 0 {
		return nil, ErrNoTrainingData
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = DefaultLogRegConfig().Epochs
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = DefaultLogRegConfig().LearningRate
	}
	dim := len(samples[0].X)
	for _, s := range samples {
		if len(s.X) != dim {
			return nil, errors.New("detect: inconsistent feature dimension")
		}
	}
	sc := fitScaler(samples)
	m := &LogReg{weights: make([]float64, dim), scaler: sc}

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	x := make([]float64, 0, dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.ShuffleInts(idx)
		lr := cfg.LearningRate / (1 + 0.01*float64(epoch))
		for _, i := range idx {
			x = sc.transform(x, samples[i].X)
			p := m.prob(x)
			g := p - samples[i].Y
			for j := range m.weights {
				m.weights[j] -= lr * (g*x[j] + cfg.L2*m.weights[j])
			}
			m.bias -= lr * g
		}
	}
	return m, nil
}

func (m *LogReg) prob(scaled []float64) float64 {
	z := m.bias
	for j, w := range m.weights {
		z += w * scaled[j]
	}
	return sigmoid(z)
}

// Prob returns P(abusive | x).
func (m *LogReg) Prob(x []float64) float64 {
	var scratch [scaledStack]float64
	return m.prob(m.scaler.transform(scratch[:0], x))
}

// Judge classifies with a 0.5 threshold.
func (m *LogReg) Judge(x []float64) Verdict {
	p := m.Prob(x)
	return Verdict{Flagged: p >= 0.5, Score: p, Reason: "logreg"}
}

func sigmoid(z float64) float64 {
	if z < -30 {
		return 0
	}
	if z > 30 {
		return 1
	}
	return 1 / (1 + math.Exp(-z))
}

// scaler standardizes features to zero mean, unit variance.
type scaler struct {
	mean []float64
	std  []float64
}

func fitScaler(samples []Sample) scaler {
	dim := len(samples[0].X)
	sc := scaler{mean: make([]float64, dim), std: make([]float64, dim)}
	n := float64(len(samples))
	for _, s := range samples {
		for j, v := range s.X {
			sc.mean[j] += v
		}
	}
	for j := range sc.mean {
		sc.mean[j] /= n
	}
	for _, s := range samples {
		for j, v := range s.X {
			d := v - sc.mean[j]
			sc.std[j] += d * d
		}
	}
	for j := range sc.std {
		sc.std[j] = math.Sqrt(sc.std[j] / n)
		if sc.std[j] < 1e-9 {
			sc.std[j] = 1
		}
	}
	return sc
}

// scaledStack is the scratch size callers keep on the stack for one
// standardized vector; the session feature vector has 15 dimensions.
const scaledStack = 16

// transform standardizes x into dst[:0], growing it only if x is longer
// than dst's capacity, and returns the result.
func (s scaler) transform(dst, x []float64) []float64 {
	dst = dst[:0]
	for j, v := range x {
		dst = append(dst, (v-s.mean[j])/s.std[j])
	}
	return dst
}
