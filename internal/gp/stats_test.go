package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// countedContextual is an n-point contextual GP over dim-knob
// configurations whose configuration and context kernels count their
// calls separately.
func countedContextual(t *testing.T, rng *rand.Rand, n, dim, ctxDim int) (cg *ContextualGP, cfg, ctx countingKernel) {
	t.Helper()
	cfg, ctx = counting(NewMatern52(1, 0.3)), counting(NewLinear(0.2, 1))
	cg = newContextual(NewSplit(dim, cfg, ctx), ctxDim)
	configs, perfs := synthData(rng, n, dim)
	ctxs, _ := synthData(rng, n, ctxDim)
	if err := cg.Fit(configs, ctxs, perfs); err != nil {
		t.Fatal(err)
	}
	if got := cfg.stats.Load(); got != int64(tri(n)) {
		t.Fatalf("Fit measured %d configuration pairs, want every pair once: %d", got, tri(n))
	}
	cfg.stats.Store(0)
	ctx.stats.Store(0)
	cfg.ofStats.Store(0)
	ctx.ofStats.Store(0)
	return cg, cfg, ctx
}

// A hyperparameter search never reads a coordinate: every likelihood
// evaluation rebuilds the Gram matrix from the cached pair statistics,
// one OfStats per pair.
func TestHyperoptMeasuresNoPairs(t *testing.T) {
	const n = 80
	cg, cfg, ctx := countedContextual(t, rand.New(rand.NewSource(41)), n, 40, 8)
	cg.OptimizeHyperparams(60)
	if got := cfg.stats.Load() + ctx.stats.Load(); got != 0 {
		t.Fatalf("OptimizeHyperparams(60) measured %d pairs, want 0", got)
	}
	of := cfg.ofStats.Load()
	if of != ctx.ofStats.Load() || of%int64(tri(n)) != 0 {
		t.Fatalf("OfStats calls %d (config) / %d (context) are not whole triangles of %d pairs", of, ctx.ofStats.Load(), tri(n))
	}
	// Nelder–Mead at MaxIter 60 over 5 parameters: the 6-vertex simplex,
	// at most a handful of evaluations per iteration, one final refactor.
	if evals := of / int64(tri(n)); evals < 20 || evals > 6+60*7+1 {
		t.Fatalf("hyperopt rebuilt the Gram matrix %d times, want O(evals)", evals)
	}
}

// At the window cap one observation costs one measured row; the other
// n(n-1)/2 pairs move inside the triangle.
func TestSlideMeasuresOneRow(t *testing.T) {
	const n = 80
	rng := rand.New(rand.NewSource(42))
	cg, cfg, ctx := countedContextual(t, rng, n, 40, 8)
	c, _ := synthData(rng, 1, 40)
	x, _ := synthData(rng, 1, 8)
	if err := cg.Slide(c[0], x[0], 1.5); err != nil {
		t.Fatal(err)
	}
	if cg.Len() != n {
		t.Fatalf("Len after Slide = %d, want %d", cg.Len(), n)
	}
	if a, b := cfg.stats.Load(), ctx.stats.Load(); a != n || b != n {
		t.Fatalf("Slide measured %d configuration and %d context pairs, want %d each", a, b, n)
	}
}

// Scoring the incumbents under a new context measures that context
// against the n training contexts and nothing else.
func TestBestByPosteriorMeasuresContextRowsOnly(t *testing.T) {
	const n = 80
	rng := rand.New(rand.NewSource(43))
	cg, cfg, ctx := countedContextual(t, rng, n, 40, 8)
	x, _ := synthData(rng, 1, 8)
	if _, _, ok := cg.BestByPosterior(x[0]); !ok {
		t.Fatal("BestByPosterior on a fitted model reported no incumbent")
	}
	if a, b := cfg.stats.Load(), ctx.stats.Load(); a != 0 || b != n {
		t.Fatalf("BestByPosterior measured %d configuration and %d context pairs, want 0 and %d", a, b, n)
	}
}

// PredictAll measures the shared context once per call: n rows and
// itself, however many candidates are scored.
func TestContextualPredictAllHoistsContext(t *testing.T) {
	const n, m = 80, 140
	rng := rand.New(rand.NewSource(44))
	cg, cfg, ctx := countedContextual(t, rng, n, 40, 8)
	cands, _ := synthData(rng, m, 40)
	x, _ := synthData(rng, 1, 8)
	cg.PredictAll(cands, x[0])
	if a, b := cfg.stats.Load(), ctx.stats.Load(); a != m*(n+1) || b != n+1 {
		t.Fatalf("PredictAll measured %d configuration and %d context pairs, want %d and %d", a, b, m*(n+1), n+1)
	}
}

// evalFit conditions on (xs, ys) the way the GP did before it cached
// pair statistics: the full Gram matrix from Eval on coordinates.
func evalFit(t *testing.T, k Kernel, noise float64, xs [][]float64, y []float64) (l *mathx.Matrix, alpha []float64) {
	t.Helper()
	n := len(xs)
	gram := mathx.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := Eval(k, xs[i], xs[j])
			gram.Set(i, j, v)
			gram.Set(j, i, v)
		}
	}
	gram.AddDiag(noise)
	l = mathx.NewMatrix(n, n)
	if _, err := mathx.CholeskyJitter(l, gram, 1e-3); err != nil {
		t.Fatal(err)
	}
	return l, mathx.CholeskySolve(l, y)
}

// Property: Slide is bit-identical to Fit on the shifted window — and
// both to the Gram matrix built from coordinates — for the weights, the
// factor and PredictAll, over random data, through more than
// refactorEvery slides and after a change of hyperparameters.
func TestSlideBitIdenticalToFitOnShiftedWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const window, dim, ctxDim = refactorEvery + 6, 5, 3
	total := window + refactorEvery + 12
	xs, ys := synthData(rng, total, dim+ctxDim)
	qs, _ := synthData(rng, 9, dim+ctxDim)
	kern := func() Kernel {
		mk := NewMatern52(1, 0.3)
		mk.Weights = []float64{1, 0.35, 1} // shorter than dim: the tail is unweighted
		return NewSplit(dim, mk, NewLinear(0.2, 1))
	}
	g := New(kern(), 1e-3)
	for i := 0; i < window; i++ {
		if err := g.Append(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := window; i < total; i++ {
		if i == window+refactorEvery/2 {
			p := g.Hyperparams()
			for d := range p {
				p[d] += 0.3 * rng.NormFloat64()
			}
			if err := g.SetHyperparams(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Slide(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
		lo := i + 1 - window
		fresh := New(g.Kern.Clone(), g.Noise)
		if err := fresh.Fit(xs[lo:i+1], ys[lo:i+1]); err != nil {
			t.Fatal(err)
		}
		if !sameBits(g.alpha, fresh.alpha) || !sameBits(g.chol.Data, fresh.chol.Data) || !sameBits(g.stats, fresh.stats) {
			t.Fatalf("slide %d: weights, factor or statistics differ from Fit on the shifted window", i-window)
		}
		l, alpha := evalFit(t, g.Kern, g.Noise, xs[lo:i+1], fresh.y)
		if !sameBits(g.alpha, alpha) || !sameBits(g.chol.Data, l.Data) {
			t.Fatalf("slide %d: weights or factor differ from the coordinate-built Gram matrix", i-window)
		}
		ms, vs := g.PredictAll(qs)
		mf, vf := fresh.PredictAll(qs)
		if !sameBits(ms, mf) || !sameBits(vs, vf) {
			t.Fatalf("slide %d: PredictAll differs from Fit on the shifted window", i-window)
		}
	}
}

// Property: the cached-distance BestByPosterior is the arg-max over
// per-point Predict, bit for bit.
func TestBestByPosteriorBitIdenticalToPredictArgMax(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 20; trial++ {
		n, dim, ctxDim := 2+rng.Intn(40), 1+rng.Intn(6), 1+rng.Intn(4)
		cg := NewContextualWeighted(dim, ctxDim, []float64{0.35})
		configs, perfs := synthData(rng, n, dim)
		ctxs, _ := synthData(rng, n, ctxDim)
		for i := range configs { // Append, so cached pairs come from both paths
			if err := cg.Append(configs[i], ctxs[i], perfs[i]); err != nil {
				t.Fatal(err)
			}
		}
		x, _ := synthData(rng, 1, ctxDim)
		wantIdx, wantMu := -1, math.Inf(-1)
		for i, c := range configs {
			if mu, _ := cg.Predict(c, x[0]); mu > wantMu {
				wantIdx, wantMu = i, mu
			}
		}
		cfg, mu, ok := cg.BestByPosterior(x[0])
		if !ok || math.Float64bits(mu) != math.Float64bits(wantMu) || !sameBits(cfg, configs[wantIdx]) {
			t.Fatalf("trial %d: BestByPosterior = %v (mean %v), arg-max over Predict = %v (mean %v)",
				trial, cfg, mu, configs[wantIdx], wantMu)
		}
	}
}

// Property: PredictAll with the context term hoisted is per-point
// Predict over the joint vector, bit for bit.
func TestContextualPredictAllBitIdenticalToPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		n, dim, ctxDim := 1+rng.Intn(50), 1+rng.Intn(8), 1+rng.Intn(4)
		cg := NewContextual(dim, ctxDim)
		configs, perfs := synthData(rng, n, dim)
		ctxs, _ := synthData(rng, n, ctxDim)
		if err := cg.Fit(configs, ctxs, perfs); err != nil {
			t.Fatal(err)
		}
		cands, _ := synthData(rng, 40, dim)
		x, _ := synthData(rng, 1, ctxDim)
		ms, vs := cg.PredictAll(cands, x[0])
		for j, c := range cands {
			mu, v := cg.Predict(c, x[0])
			if math.Float64bits(mu) != math.Float64bits(ms[j]) || math.Float64bits(v) != math.Float64bits(vs[j]) {
				t.Fatalf("trial %d candidate %d: PredictAll (%v, %v) vs Predict (%v, %v)", trial, j, ms[j], vs[j], mu, v)
			}
		}
	}
}

// Fit owns its outer slice: a later Append must not write through to the
// caller's backing array.
func TestFitDoesNotAliasCallerSlice(t *testing.T) {
	xs := [][]float64{{0.1}, {0.5}, {0.7}}
	ys := []float64{1, 2, 3}
	g := New(NewMatern52(1, 0.5), 1e-3)
	if err := g.Fit(xs[:2], ys[:2]); err != nil {
		t.Fatal(err)
	}
	if err := g.Append([]float64{0.9}, 9); err != nil {
		t.Fatal(err)
	}
	if xs[2][0] != 0.7 || ys[2] != 3 {
		t.Fatalf("Append after Fit overwrote the caller's data: xs[2]=%v ys[2]=%v", xs[2], ys[2])
	}
}

// The branch-free weighted distance sums the same terms in the same
// order as the per-element weight lookup it replaced.
func TestMatern52DistBitIdenticalToBranchyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, nw := range []int{0, 3, 7, 12} {
		k := NewMatern52(1, 0.3)
		k.Weights = make([]float64, nw)
		for i := range k.Weights {
			k.Weights[i] = rng.Float64()
		}
		a, _ := synthData(rng, 2, 7)
		s := 0.0
		for i := range a[0] {
			w := 1.0
			if i < len(k.Weights) {
				w = k.Weights[i]
			}
			d := w * (a[0][i] - a[1][i])
			s += d * d
		}
		if got, want := k.dist(a[0], a[1]), math.Sqrt(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d weights: dist %v, reference %v", nw, got, want)
		}
	}
}
