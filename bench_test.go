// Package repro's top-level benchmarks regenerate every table and figure
// of the paper's evaluation. Each benchmark runs its experiment once per
// b.N at a reduced iteration count (override with -benchiters) and
// reports the generated table through b.Log, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation at smoke scale, and
//
//	go run ./cmd/benchrunner -all
//
// reproduces it at paper scale.
package main

import (
	"flag"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/dbsim"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/workload"
)

var benchIters = flag.Int("benchiters", 60, "iterations per experiment in benchmarks")

func runExperiment(b *testing.B, id string, iters int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := bench.Experiment(id, iters, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s\n%s", rep.Title, rep.Body)
		}
	}
}

func BenchmarkFig1aWorkloadTrace(b *testing.B) { runExperiment(b, "fig1a", *benchIters) }
func BenchmarkFig1bDataGrowth(b *testing.B)    { runExperiment(b, "fig1b", 400) }
func BenchmarkFig1cOfflineExploration(b *testing.B) {
	runExperiment(b, "fig1c", *benchIters)
}
func BenchmarkFig1dFixedConfigDrift(b *testing.B) { runExperiment(b, "fig1d", *benchIters) }
func BenchmarkFig3ContextGeneralization(b *testing.B) {
	runExperiment(b, "fig3", 0)
}
func BenchmarkFig4ClusterBoundary(b *testing.B) { runExperiment(b, "fig4", 0) }
func BenchmarkFig5DynamicTPCC(b *testing.B)     { runExperiment(b, "fig5tpcc", *benchIters) }
func BenchmarkFig5DynamicTwitter(b *testing.B)  { runExperiment(b, "fig5twitter", *benchIters) }
func BenchmarkFig5DynamicJOB(b *testing.B)      { runExperiment(b, "fig5job", *benchIters) }
func BenchmarkFig6OLTPOLAPCycle(b *testing.B)   { runExperiment(b, "fig6", *benchIters) }
func BenchmarkFig7RealWorkload(b *testing.B)    { runExperiment(b, "fig7", *benchIters) }
func BenchmarkFig8Overhead(b *testing.B)        { runExperiment(b, "fig8", *benchIters) }
func BenchmarkFig9YCSBPattern(b *testing.B)     { runExperiment(b, "fig9", 400) }
func BenchmarkFig10ThroughputSurface(b *testing.B) {
	runExperiment(b, "fig10", 0)
}
func BenchmarkFig11YCSBCaseStudy(b *testing.B) { runExperiment(b, "fig11", *benchIters) }
func BenchmarkFig12KnobTraces(b *testing.B)    { runExperiment(b, "fig12", *benchIters) }
func BenchmarkFig13Visualization(b *testing.B) { runExperiment(b, "fig13", *benchIters) }
func BenchmarkFig14AblationContext(b *testing.B) {
	runExperiment(b, "fig14", *benchIters)
}
func BenchmarkFig15AblationSafety(b *testing.B) {
	runExperiment(b, "fig15", *benchIters)
}
func BenchmarkFig16IntervalSizes(b *testing.B) { runExperiment(b, "fig16", *benchIters/2) }
func BenchmarkFig17MySQLDefaultStart(b *testing.B) {
	runExperiment(b, "fig17", *benchIters)
}
func BenchmarkTable1StaticWorkloads(b *testing.B) {
	runExperiment(b, "table1", *benchIters)
}
func BenchmarkTableA1TimeBreakdown(b *testing.B) {
	runExperiment(b, "tableA1", *benchIters)
}
func BenchmarkExt1Stopping(b *testing.B)      { runExperiment(b, "ext1", *benchIters) }
func BenchmarkExt4CrossEngine(b *testing.B)   { runExperiment(b, "ext4", *benchIters) }
func BenchmarkExt5CanaryRollout(b *testing.B) { runExperiment(b, "ext5", *benchIters) }

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
