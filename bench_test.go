// Package repro's top-level benchmarks time the tuner's inference hot
// paths in isolation: context featurization, DBSCAN over the re-cluster
// index, incremental GP conditioning and batched candidate scoring.
//
//	go test -run '^$' -bench . -benchmem .
//
// The paper's tables and figures are regenerated by
//
//	go run ./cmd/benchrunner -all
//
// and pinned exactly by TestBaselines in internal/bench.
package main

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/dbsim"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/workload"
)

// BenchmarkFeaturizeContext measures context featurization over a
// repeating-template workload snapshot at paper scale (the per-iteration
// hot path outside the GP) with the template-keyed encoding cache warm.
func BenchmarkFeaturizeContext(b *testing.B) {
	gen := workload.NewTPCC(1, true)
	in := dbsim.New(knobs.MySQL57(), 1)
	snaps := make([]workload.Snapshot, 64)
	stats := make([]dbsim.OptimizerStats, len(snaps))
	for i := range snaps {
		snaps[i] = gen.At(i)
		stats[i] = in.OptimizerStats(snaps[i])
	}
	f := bench.NewFeaturizer(1)
	var buf []float64
	// Warm outside the timed region: vocabulary admission and the
	// first cold encode per template are one-time costs.
	for i := range snaps {
		buf = f.ContextInto(buf, snaps[i], stats[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % len(snaps)
		buf = f.ContextInto(buf, snaps[s], stats[s])
	}
}

// BenchmarkDBSCAN measures DBSCAN over the distance index on
// 12-dimensional context-like points (tight blobs), the shape the
// re-cluster check serves: the index is already built when it runs, and
// each call recomputes the eps-neighborhoods.
func BenchmarkDBSCAN(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([][]float64, 600)
	for i := range pts {
		c := float64(rng.Intn(4)) + 0.25
		p := make([]float64, 12)
		for d := range p {
			p[d] = c + 0.05*rng.NormFloat64()
		}
		pts[i] = p
	}
	m := cluster.NewDistMatrix(pts)
	b.Run("n600_d12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.DBSCAN(0.5, 4)
		}
	})
}

// synthGPObs generates a deterministic synthetic training set for the
// inference microbenchmarks.
func synthGPObs(n, dim int) (xs [][]float64, ys []float64) {
	rng := rand.New(rand.NewSource(7))
	xs = make([][]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		s := 0.0
		for d := range x {
			x[d] = rng.Float64()
			s += x[d]
		}
		xs[i] = x
		ys[i] = s + 0.05*rng.NormFloat64()
	}
	return xs, ys
}

// BenchmarkIncrementalGP conditions a GP one observation at a time with
// the incremental Cholesky extension (O(n²) per append) up to n=200
// observations — the inference hot path of every tuning iteration.
func BenchmarkIncrementalGP(b *testing.B) {
	xs, ys := synthGPObs(200, 6)
	for i := 0; i < b.N; i++ {
		g := gp.New(gp.NewMatern52(1.0, 0.3), 1e-4)
		for j := range xs {
			if err := g.Append(xs[j], ys[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCandidateScoring compares batched posterior evaluation of 100
// candidate configurations (PredictAll: shared factor, scratch-buffer
// solves, parallel candidate blocks) against one-at-a-time Predict calls
// on a 200-observation model — the candidate-scoring hot path of
// Recommend.
func BenchmarkCandidateScoring(b *testing.B) {
	xs, ys := synthGPObs(200, 6)
	g := gp.New(gp.NewMatern52(1.0, 0.3), 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		b.Fatal(err)
	}
	cands, _ := synthGPObs(100, 6)
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.PredictAll(cands)
		}
	})
	b.Run("per-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range cands {
				g.Predict(c)
			}
		}
	})
}
