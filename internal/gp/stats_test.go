package gp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// unfittedCounted is a contextual GP over dim-knob configurations whose
// configuration and context kernels count their calls separately.
func unfittedCounted(dim, ctxDim int) (cg *ContextualGP, cfg, ctx countingKernel) {
	cfg, ctx = counting(NewMatern52(1, 0.3)), counting(NewLinear(0.2, 1))
	return newContextual(NewSplit(dim, cfg, ctx), ctxDim), cfg, ctx
}

// countedContextual is unfittedCounted fitted on n points, its counters
// zeroed after checking that Fit measured and evaluated each pair once.
func countedContextual(t *testing.T, rng *rand.Rand, n, dim, ctxDim int) (cg *ContextualGP, cfg, ctx countingKernel) {
	t.Helper()
	cg, cfg, ctx = unfittedCounted(dim, ctxDim)
	configs, perfs := synthData(rng, n, dim)
	ctxs, _ := synthData(rng, n, ctxDim)
	if err := cg.Fit(configs, ctxs, perfs); err != nil {
		t.Fatal(err)
	}
	expectCounts(t, "Fit", cfg, ctx, tri(n), tri(n), tri(n), tri(n))
	return cg, cfg, ctx
}

// expectCounts checks the pairs each kernel measured and the values it
// evaluated since the last check, and zeroes the counters.
func expectCounts(t *testing.T, step string, cfg, ctx countingKernel, cfgStats, cfgOf, ctxStats, ctxOf int) {
	t.Helper()
	got := []int64{cfg.stats.Load(), cfg.ofStats.Load(), ctx.stats.Load(), ctx.ofStats.Load()}
	if want := []int64{int64(cfgStats), int64(cfgOf), int64(ctxStats), int64(ctxOf)}; !slices.Equal(got, want) {
		t.Fatalf("%s: configuration kernel measured %d pairs and evaluated %d, context kernel %d and %d; want %v", step, got[0], got[1], got[2], got[3], want)
	}
	cfg.reset()
	ctx.reset()
}

// A hyperparameter search never reads a coordinate: every likelihood
// evaluation rebuilds a trial's whole-kernel value triangle from the
// cached pair statistics, one OfStats per pair and part, and adopting
// the winner rebuilds the model's configuration triangle once.
func TestHyperoptMeasuresNoPairs(t *testing.T) {
	const n = 80
	cg, cfg, ctx := countedContextual(t, rand.New(rand.NewSource(41)), n, 40, 8)
	cg.OptimizeHyperparams(60)
	// One SetParams per likelihood evaluation and one to adopt the winner.
	evals := int(cfg.params.Load()) - 1
	// Nelder–Mead at MaxIter 60 over 5 parameters: the 6-vertex simplex,
	// at most a handful of evaluations per iteration.
	if evals < 20 || evals > 6+60*7 {
		t.Fatalf("hyperopt ran %d likelihood evaluations, want O(MaxIter)", evals)
	}
	expectCounts(t, "OptimizeHyperparams(60)", cfg, ctx, 0, (evals+1)*tri(n), 0, (evals+1)*tri(n))
}

// Each change of hyperparameters re-evaluates the configuration triangle
// once and nothing else does: an Append evaluates one row, a transfer
// or a restore one triangle.
func TestValueTriangleRebuiltOnlyOnHyperparameterChange(t *testing.T) {
	const n = 80
	rng := rand.New(rand.NewSource(49))
	cg, cfg, ctx := countedContextual(t, rng, n-1, 40, 8)
	c, _ := synthData(rng, 1, 40)
	x, _ := synthData(rng, 1, 8)
	if err := cg.Append(c[0], x[0], 1.5); err != nil {
		t.Fatal(err)
	}
	if cg.gp.appends != 1 {
		t.Fatal("Append did not extend the factor")
	}
	expectCounts(t, "Append", cfg, ctx, n, n, n, n)
	p := cg.Hyperparams()
	p[1] += 0.2
	if err := cg.SetHyperparams(p); err != nil {
		t.Fatal(err)
	}
	expectCounts(t, "SetHyperparams", cfg, ctx, 0, tri(n), 0, tri(n))
	r, rcfg, rctx := unfittedCounted(40, 8)
	if err := r.SetState(cg.State()); err != nil {
		t.Fatal(err)
	}
	expectCounts(t, "SetState", rcfg, rctx, tri(n), tri(n), tri(n), 0)
}

// At the window cap one observation costs one measured and evaluated
// configuration row; the other n(n-1)/2 pairs move inside the
// triangles. Only the context kernel, whose values are not resident, is
// evaluated over every pair.
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
	expectCounts(t, "Slide", cfg, ctx, n, n, n, tri(n))
}

// Scoring the incumbents under a new context measures and evaluates
// that context against the n training contexts and nothing else, after
// a Fit, an Append or a Slide alike.
func TestBestByPosteriorMeasuresContextRowsOnly(t *testing.T) {
	const n = 80
	rng := rand.New(rand.NewSource(43))
	cg, cfg, ctx := countedContextual(t, rng, n-1, 40, 8)
	cs, ys := synthData(rng, 2, 40)
	xs, _ := synthData(rng, 3, 8)
	for step, observe := range []func() error{
		func() error { return nil },
		func() error { return cg.Append(cs[0], xs[0], ys[0]) },
		func() error { return cg.Slide(cs[1], xs[1], ys[1]) },
	} {
		if err := observe(); err != nil {
			t.Fatal(err)
		}
		cfg.reset()
		ctx.reset()
		if _, _, ok := cg.BestByPosterior(xs[2]); !ok {
			t.Fatal("BestByPosterior on a fitted model reported no incumbent")
		}
		expectCounts(t, fmt.Sprintf("BestByPosterior after step %d", step), cfg, ctx, 0, 0, cg.Len(), cg.Len())
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
// pair statistics: the full Gram matrix from Eval on coordinates, and
// mathx's full-matrix factorization, packed.
func evalFit(t *testing.T, k Kernel, noise float64, xs [][]float64, y []float64) (chol, alpha []float64) {
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
	chol = make([]float64, tri(n))
	if _, err := mathx.CholeskyJitter(chol, mathx.NewMatrix(n, n), gram, 1e-3); err != nil {
		t.Fatal(err)
	}
	return chol, mathx.CholeskySolve(chol, y)
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
		if !sameBits(g.alpha, fresh.alpha) || !sameBits(g.chol, fresh.chol) || !sameBits(g.stats, fresh.stats) || !sameBits(g.kres, fresh.kres) {
			t.Fatalf("slide %d: weights, factor or triangles differ from Fit on the shifted window", i-window)
		}
		l, alpha := evalFit(t, g.Kern, g.Noise, xs[lo:i+1], fresh.y)
		if !sameBits(g.alpha, alpha) || !sameBits(g.chol, l) {
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
		idx, mu, ok := cg.BestByPosterior(x[0])
		cfg := cg.Config(idx)
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

// Property: through a random sequence of Append, Slide,
// OptimizeHyperparams, SetHyperparams (accepted and refused) and
// SetState, the resident value triangle equals one built afresh from the
// same window and hyperparameters, BestByPosterior and PredictAll equal
// those of a model restored with fresh triangles, and, whenever the
// factor came from a full factorization, those of a freshly fitted
// model — all bit for bit.
func TestValueTriangleBitIdenticalUnderRandomOps(t *testing.T) {
	const dim, ctxDim, window = 6, 3, 30
	weights := []float64{1, 0.35}
	rng := rand.New(rand.NewSource(55))
	configs, perfs := synthData(rng, 300, dim)
	ctxs, _ := synthData(rng, 300, ctxDim)
	cands, _ := synthData(rng, 20, dim)
	live := NewContextualWeighted(dim, ctxDim, weights)
	next := 0
	for step := 0; step < 160; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || live.Len() < 3:
			observe := live.Append
			if live.Len() == window {
				observe = live.Slide
			}
			if err := observe(configs[next], ctxs[next], perfs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		case op == 6:
			live.OptimizeHyperparams(20)
		case op == 7:
			p := live.Hyperparams()
			for d := range p {
				p[d] += 0.3 * rng.NormFloat64()
			}
			if err := live.SetHyperparams(p); err != nil {
				t.Fatal(err)
			}
		case op == 8:
			p := live.Hyperparams()
			p[0] = 800 // an infinite Matérn variance: the transfer is refused
			if err := live.SetHyperparams(p); err == nil {
				t.Fatal("SetHyperparams accepted an infinite variance")
			}
		default:
			live = roundTrip(t, live, dim, ctxDim, weights)
		}
		c, x, y := live.Observations()
		fresh := NewContextualWeighted(dim, ctxDim, weights)
		fresh.gp.Kern.SetHyper(live.gp.Kern.Hyper())
		fresh.gp.Noise = live.gp.Noise
		if err := fresh.Fit(c, x, y); err != nil {
			t.Fatal(err)
		}
		if !sameBits(live.gp.kres, fresh.gp.kres) {
			t.Fatalf("step %d: the resident triangle differs from a fresh one", step)
		}
		same := []*ContextualGP{roundTrip(t, live, dim, ctxDim, weights)}
		if live.gp.appends == 0 {
			same = append(same, fresh)
		}
		q := ctxs[rng.Intn(len(ctxs))]
		bc, bm, _ := live.BestByPosterior(q)
		ms, vs := live.PredictAll(cands, q)
		for _, o := range same {
			oc, om, _ := o.BestByPosterior(q)
			oms, ovs := o.PredictAll(cands, q)
			if bc != oc || math.Float64bits(bm) != math.Float64bits(om) || !sameBits(ms, oms) || !sameBits(vs, ovs) {
				t.Fatalf("step %d: BestByPosterior or PredictAll differs from a model with fresh triangles", step)
			}
		}
	}
}

// A refused hyperparameter transfer leaves the model exactly as it was:
// the hyperparameters as held (not a round trip through log space), the
// value triangle, the factor and every prediction.
func TestSetHyperparamsRollbackIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	cg := NewContextual(4, 2)
	configs, perfs := synthData(rng, 20, 4)
	ctxs, _ := synthData(rng, 20, 2)
	if err := cg.Fit(configs, ctxs, perfs); err != nil {
		t.Fatal(err)
	}
	g := cg.gp
	hyper, noise := g.Kern.Hyper(), g.Noise
	kres, chol, alpha := mathx.VecClone(g.kres), mathx.VecClone(g.chol), mathx.VecClone(g.alpha)
	ms, vs := cg.PredictAll(configs, ctxs[0])
	p := cg.Hyperparams()
	p[0] = 800 // log Matérn variance: the Gram matrix overflows
	if err := cg.SetHyperparams(p); err == nil {
		t.Fatal("SetHyperparams accepted an infinite variance")
	}
	if !sameBits(g.Kern.Hyper(), hyper) || math.Float64bits(g.Noise) != math.Float64bits(noise) {
		t.Fatalf("rolled back to hyperparameters %v and noise %v, want %v and %v", g.Kern.Hyper(), g.Noise, hyper, noise)
	}
	if !sameBits(g.kres, kres) || !sameBits(g.chol, chol) || !sameBits(g.alpha, alpha) {
		t.Fatal("rollback left a different value triangle, factor or weights")
	}
	if ms2, vs2 := cg.PredictAll(configs, ctxs[0]); !sameBits(ms, ms2) || !sameBits(vs, vs2) {
		t.Fatal("rollback changed predictions")
	}
}
