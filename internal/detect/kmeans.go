package detect

import (
	"math"

	"funabuse/internal/simrand"
)

// KMeans is an unsupervised session-clustering detector in the style of the
// agglomerative / unsupervised approaches the paper cites: sessions are
// clustered on standardized features and whole clusters are labelled by
// their majority once a handful of members are identified.
type KMeans struct {
	centroids [][]float64
	scaler    scaler
}

// TrainKMeans clusters samples into k groups using k-means++ seeding and
// Lloyd iterations. Labels in the samples are ignored (unsupervised); the
// Sample type is reused for convenience.
func TrainKMeans(rng *simrand.RNG, samples []Sample, k, iterations int) (*KMeans, error) {
	if len(samples) == 0 {
		return nil, ErrNoTrainingData
	}
	if k < 1 {
		k = 1
	}
	if k > len(samples) {
		k = len(samples)
	}
	if iterations <= 0 {
		iterations = 50
	}
	sc := fitScaler(samples)
	points := make([][]float64, len(samples))
	for i, s := range samples {
		points[i] = sc.transform(make([]float64, 0, len(s.X)), s.X)
	}

	centroids := seedPlusPlus(rng, points, k)
	assign := make([]int, len(points))
	for range iterations {
		changed := false
		for i, p := range points {
			best := nearest(centroids, p)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		counts := make([]int, k)
		next := make([][]float64, k)
		for c := range next {
			next[c] = make([]float64, len(points[0]))
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j, v := range p {
				next[c][j] += v
			}
		}
		for c := range next {
			if counts[c] == 0 {
				// Re-seed empty cluster on the farthest point.
				next[c] = append([]float64(nil), points[farthest(centroids, points)]...)
				continue
			}
			for j := range next[c] {
				next[c][j] /= float64(counts[c])
			}
		}
		centroids = next
		if !changed {
			break
		}
	}
	return &KMeans{centroids: centroids, scaler: sc}, nil
}

// K returns the number of clusters.
func (m *KMeans) K() int { return len(m.centroids) }

// Assign returns the cluster index for a feature vector.
func (m *KMeans) Assign(x []float64) int {
	var scratch [scaledStack]float64
	return nearest(m.centroids, m.scaler.transform(scratch[:0], x))
}

// Assignments maps each sample to its cluster.
func (m *KMeans) Assignments(samples []Sample) []int {
	out := make([]int, len(samples))
	for i, s := range samples {
		out[i] = m.Assign(s.X)
	}
	return out
}

// ClusterPurity computes, per cluster, the share of members whose label is
// positive — the statistic used to decide whether flagging a whole cluster
// from a few identified members is sound.
func (m *KMeans) ClusterPurity(samples []Sample) []float64 {
	pos := make([]float64, m.K())
	total := make([]float64, m.K())
	for _, s := range samples {
		c := m.Assign(s.X)
		total[c]++
		if s.Y >= 0.5 {
			pos[c]++
		}
	}
	out := make([]float64, m.K())
	for c := range out {
		if total[c] > 0 {
			out[c] = pos[c] / total[c]
		}
	}
	return out
}

func seedPlusPlus(rng *simrand.RNG, points [][]float64, k int) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := points[rng.Intn(len(points))]
	centroids = append(centroids, append([]float64(nil), first...))
	for len(centroids) < k {
		// Choose next centre weighted by squared distance to nearest.
		weights := make([]float64, len(points))
		var total float64
		for i, p := range points {
			d := distSq(p, centroids[nearest(centroids, p)])
			weights[i] = d
			total += d
		}
		if total == 0 {
			// All points coincide with existing centroids.
			centroids = append(centroids, append([]float64(nil), points[rng.Intn(len(points))]...))
			continue
		}
		pick := simrand.NewCategorical(weights).Draw(rng)
		centroids = append(centroids, append([]float64(nil), points[pick]...))
	}
	return centroids
}

func nearest(centroids [][]float64, p []float64) int {
	best, bestD := 0, math.MaxFloat64
	for c, centroid := range centroids {
		if d := distSq(p, centroid); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

func farthest(centroids [][]float64, points [][]float64) int {
	best, bestD := 0, -1.0
	for i, p := range points {
		if d := distSq(p, centroids[nearest(centroids, p)]); d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

func distSq(a, b []float64) float64 {
	var d float64
	for j := range a {
		diff := a[j] - b[j]
		d += diff * diff
	}
	return d
}
