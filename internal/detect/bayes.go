package detect

import (
	"math"
)

// NaiveBayes is a Gaussian naive Bayes classifier: per-class feature means
// and variances with a class prior, the standard baseline in the web-log
// bot-recognition literature.
type NaiveBayes struct {
	priorPos float64
	posMean  []float64
	posVar   []float64
	negMean  []float64
	negVar   []float64
}

// TrainNaiveBayes fits class-conditional Gaussians. Classes missing from
// the training set get an uninformative prior of zero probability.
func TrainNaiveBayes(samples []Sample) (*NaiveBayes, error) {
	if len(samples) == 0 {
		return nil, ErrNoTrainingData
	}
	dim := len(samples[0].X)
	m := &NaiveBayes{
		posMean: make([]float64, dim), posVar: make([]float64, dim),
		negMean: make([]float64, dim), negVar: make([]float64, dim),
	}
	var nPos, nNeg float64
	for _, s := range samples {
		if s.Y >= 0.5 {
			nPos++
			for j, v := range s.X {
				m.posMean[j] += v
			}
		} else {
			nNeg++
			for j, v := range s.X {
				m.negMean[j] += v
			}
		}
	}
	m.priorPos = nPos / float64(len(samples))
	for j := range m.posMean {
		if nPos > 0 {
			m.posMean[j] /= nPos
		}
		if nNeg > 0 {
			m.negMean[j] /= nNeg
		}
	}
	for _, s := range samples {
		if s.Y >= 0.5 {
			for j, v := range s.X {
				d := v - m.posMean[j]
				m.posVar[j] += d * d
			}
		} else {
			for j, v := range s.X {
				d := v - m.negMean[j]
				m.negVar[j] += d * d
			}
		}
	}
	const varFloor = 1e-6
	for j := range m.posVar {
		if nPos > 0 {
			m.posVar[j] /= nPos
		}
		if nNeg > 0 {
			m.negVar[j] /= nNeg
		}
		if m.posVar[j] < varFloor {
			m.posVar[j] = varFloor
		}
		if m.negVar[j] < varFloor {
			m.negVar[j] = varFloor
		}
	}
	return m, nil
}

// Prob returns P(abusive | x) via Bayes' rule over the fitted Gaussians.
func (m *NaiveBayes) Prob(x []float64) float64 {
	if m.priorPos <= 0 {
		return 0
	}
	if m.priorPos >= 1 {
		return 1
	}
	logPos := math.Log(m.priorPos)
	logNeg := math.Log(1 - m.priorPos)
	for j, v := range x {
		logPos += logGauss(v, m.posMean[j], m.posVar[j])
		logNeg += logGauss(v, m.negMean[j], m.negVar[j])
	}
	// Normalise in log space.
	mx := math.Max(logPos, logNeg)
	pp := math.Exp(logPos - mx)
	pn := math.Exp(logNeg - mx)
	return pp / (pp + pn)
}

// Judge classifies with a 0.5 threshold.
func (m *NaiveBayes) Judge(x []float64) Verdict {
	p := m.Prob(x)
	return Verdict{Flagged: p >= 0.5, Reason: "naive-bayes"}
}

func logGauss(v, mean, variance float64) float64 {
	d := v - mean
	return -0.5*math.Log(2*math.Pi*variance) - d*d/(2*variance)
}
