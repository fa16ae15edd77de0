package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx"
)

// repeated is n training observations over k distinct configurations,
// interleaved: row i applies configuration i mod k, under its own
// context, as safe exploration re-applies its incumbents.
func repeated(rng *rand.Rand, n, k, dim, ctxDim int) (configs, ctxs [][]float64, perfs []float64) {
	distinct, _ := synthData(rng, k, dim)
	ctxs, perfs = synthData(rng, n, ctxDim)
	configs = make([][]float64, n)
	for i := range configs {
		configs[i] = mathx.VecClone(distinct[i%k])
	}
	return configs, ctxs, perfs
}

// benchModel is a mysql57-sized model at its window cap: 80 rows of 40
// knobs and 12 context features over k distinct configurations.
func benchModel(b *testing.B, k int) *ContextualGP {
	rng := rand.New(rand.NewSource(int64(90 + k)))
	configs, ctxs, perfs := repeated(rng, 80, k, 40, 12)
	cg := NewContextual(40, 12)
	if err := cg.Fit(configs, ctxs, perfs); err != nil {
		b.Fatal(err)
	}
	return cg
}

// benchMeans keeps the benchmarked results live.
var benchMeans []float64

// BenchmarkPredictAbove scores 140 candidates, as a suggest's safety
// assessment does, against windows of 1, 8 and 80 distinct
// configurations.
func BenchmarkPredictAbove(b *testing.B) {
	for _, k := range []int{1, 8, 80} {
		b.Run(fmt.Sprintf("distinct=%d", k), func(b *testing.B) {
			cg := benchModel(b, k)
			rng := rand.New(rand.NewSource(99))
			cands, _ := synthData(rng, 140, 40)
			ctx, _ := synthData(rng, 1, 12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchMeans, _ = cg.PredictAbove(cands, ctx[0], math.Inf(-1))
			}
		})
	}
}

// BenchmarkOptimizeHyperparams times the refit a model runs as it
// grows, 60 Nelder–Mead evaluations, each from the same fitted model.
func BenchmarkOptimizeHyperparams(b *testing.B) {
	for _, k := range []int{1, 8, 80} {
		b.Run(fmt.Sprintf("distinct=%d", k), func(b *testing.B) {
			cg := benchModel(b, k)
			start := Refit{Hyper: cg.gp.Kern.Hyper(), Noise: cg.gp.Noise}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := cg.InstallRefit(start); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				cg.OptimizeHyperparams(60)
			}
		})
	}
}
