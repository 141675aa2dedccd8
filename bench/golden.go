package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"funabuse/internal/runner"
)

// goldenSeed is the seed whose outputs are pinned. Other seeds are checked
// for agreement between rounds and against the invariant limits only.
const goldenSeed = 1

//go:embed testdata/golden_seed1.json
var goldenJSON []byte

// goldenPlan pins one workload's generated schedule and what the system
// answered to it.
type goldenPlan struct {
	PlanHash string   `json:"plan_hash"`
	Verdicts verdicts `json:"verdicts"`
}

// golden is the pinned output set of the default seed.
type golden struct {
	Seed  uint64                `json:"seed"`
	Plans map[string]goldenPlan `json:"plans"`
	// Digests maps "<experiment>/<seed>" to the digest of that replicate's
	// runner.Sample.
	Digests map[string]string `json:"digests"`

	// record turns every check into a write: the pass that regenerates the
	// golden file.
	record bool
}

// loadGolden returns the pinned outputs when seed is the golden seed, and
// nil (every check a no-op) otherwise.
func loadGolden(seed uint64, record bool) (*golden, error) {
	if seed != goldenSeed {
		if record {
			return nil, fmt.Errorf("goldens are pinned for seed %d only", goldenSeed)
		}
		return nil, nil
	}
	// A recording pass starts from the pinned set too, so that regenerating
	// one workload's goldens leaves the others' in place.
	g := &golden{Plans: map[string]goldenPlan{}, Digests: map[string]string{}}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	g.Seed, g.record = seed, record
	return g, nil
}

// checkGate compares a workload's plan hash and verdict histogram with the
// pinned ones. Each decision that differs counts as a failed operation.
func (g *golden) checkGate(rep *report, workload string, planHash uint64, v *verdicts) {
	if g == nil {
		return
	}
	hash := strconv.FormatUint(planHash, 16)
	if g.record {
		g.Plans[workload] = goldenPlan{PlanHash: hash, Verdicts: *v}
		return
	}
	want, ok := g.Plans[workload]
	if !ok {
		rep.failf("no golden for workload %s", workload)
		return
	}
	if want.PlanHash != hash {
		rep.failf("plan hash %s, golden %s", hash, want.PlanHash)
	}
	if d := v.distance(&want.Verdicts); d > 0 {
		rep.Failed += d
		rep.failf("verdicts %s, golden %s", v, &want.Verdicts)
	}
}

// checkDigest compares one replicate's sample digest with the pinned one.
func (g *golden) checkDigest(rep *report, key, digest string) {
	if g == nil {
		return
	}
	if g.record {
		g.Digests[key] = digest
		return
	}
	if want, ok := g.Digests[key]; !ok || want != digest {
		rep.Failed++
		rep.failf("sample digest of %s is %s, golden %q", key, digest, want)
	}
}

// sampleDigest folds a replicate's metric names and exact float bits into
// one value: two samples share a digest only if every reported number is
// bit-identical.
func sampleDigest(s runner.Sample) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, m := range s {
		h.Write([]byte(m.Name))
		bits := math.Float64bits(m.Value)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}
