package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx"
)

// prefixDistinct is how many configurations the interleaved rows 0..i
// of repeated hold, summed over the n rows: what conditioning measures
// and evaluates of the configuration kernel, one row at a time.
func prefixDistinct(n, k int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += min(i+1, k)
	}
	return s
}

// countedRepeated is unfittedCounted fitted on repeated(n, k), its
// counters zeroed after checking that Fit measured and evaluated each
// row's configuration once per distinct configuration so far and its
// context once per pair.
func countedRepeated(t *testing.T, rng *rand.Rand, n, k, dim, ctxDim int) (cg *ContextualGP, cfg, ctx countingKernel) {
	t.Helper()
	cg, cfg, ctx = unfittedCounted(dim, ctxDim)
	configs, ctxs, perfs := repeated(rng, n, k, dim, ctxDim)
	if err := cg.Fit(configs, ctxs, perfs); err != nil {
		t.Fatal(err)
	}
	expectCounts(t, "Fit", cfg, ctx, prefixDistinct(n, k), prefixDistinct(n, k), tri(n), tri(n))
	return cg, cfg, ctx
}

// A search over a window of k distinct configurations in n rows
// evaluates the configuration kernel once per distinct pair for each
// likelihood evaluation while the distinct pairs are fewer than 4 in 5
// of the row pairs (k ≤ 71 of 80), and once per row pair above that;
// the adopted winner's once per distinct pair; and the context kernel
// once per pair of rows.
func TestHyperoptMeasuresNoPairsRepeatedConfigs(t *testing.T) {
	const n = 80
	for _, c := range []struct {
		k     int
		split bool
	}{{1, true}, {8, true}, {71, true}, {72, false}, {79, false}} {
		cg, cfg, ctx := countedRepeated(t, rand.New(rand.NewSource(61)), n, c.k, 40, 8)
		cg.OptimizeHyperparams(60)
		evals := int(cfg.params.Load()) - 1
		if evals < 20 || evals > 6+60*7 {
			t.Fatalf("k=%d: hyperopt ran %d likelihood evaluations, want O(MaxIter)", c.k, evals)
		}
		perEval := tri(n)
		if c.split {
			perEval = tri(c.k)
		}
		expectCounts(t, fmt.Sprintf("k=%d OptimizeHyperparams(60)", c.k), cfg, ctx, 0, evals*perEval+tri(c.k), 0, (evals+1)*tri(n))
	}
}

// An Append of a repeated configuration measures and evaluates it
// against the k distinct configurations; a transfer re-evaluates the k
// distinct pairs; a restore conditions one row at a time as Fit does.
func TestValueTriangleRebuiltOnlyOnHyperparameterChangeRepeatedConfigs(t *testing.T) {
	const n, k = 80, 8
	rng := rand.New(rand.NewSource(62))
	cg, cfg, ctx := countedRepeated(t, rng, n-1, k, 40, 8)
	x, _ := synthData(rng, 1, 8)
	if err := cg.Append(cg.Config(3), x[0], 1.5); err != nil {
		t.Fatal(err)
	}
	if cg.gp.appends != 1 {
		t.Fatal("Append did not extend the factor")
	}
	expectCounts(t, "Append", cfg, ctx, k, k, n, n)
	p := cg.Hyperparams()
	p[1] += 0.2
	if err := cg.SetHyperparams(p); err != nil {
		t.Fatal(err)
	}
	expectCounts(t, "SetHyperparams", cfg, ctx, 0, tri(k), 0, tri(n))
	r, rcfg, rctx := unfittedCounted(40, 8)
	if err := r.SetState(cg.State()); err != nil {
		t.Fatal(err)
	}
	want := prefixDistinct(n-1, k) + k
	expectCounts(t, "SetState", rcfg, rctx, want, want, tri(n), 0)
}

// At the window cap a repeated configuration costs one row of k
// configuration measurements and values, and dropping the oldest row
// renumbers the index without touching a kernel. A new configuration
// costs k+1.
func TestSlideMeasuresOneRowRepeatedConfigs(t *testing.T) {
	const n, k = 80, 8
	rng := rand.New(rand.NewSource(63))
	cg, cfg, ctx := countedRepeated(t, rng, n, k, 40, 8)
	x, _ := synthData(rng, 2, 8)
	if err := cg.Slide(cg.Config(0), x[0], 1.5); err != nil {
		t.Fatal(err)
	}
	expectCounts(t, "Slide of a repeated configuration", cfg, ctx, k, k, n, tri(n))
	c, _ := synthData(rng, 1, 40)
	if err := cg.Slide(c[0], x[1], 1.5); err != nil {
		t.Fatal(err)
	}
	expectCounts(t, "Slide of a new configuration", cfg, ctx, k+1, k+1, n, tri(n))
}

// Scoring the incumbents of a window that repeats its configurations
// still measures and evaluates only the new context against the n
// training contexts.
func TestBestByPosteriorMeasuresContextRowsOnlyRepeatedConfigs(t *testing.T) {
	const n, k = 80, 8
	rng := rand.New(rand.NewSource(64))
	cg, cfg, ctx := countedRepeated(t, rng, n-1, k, 40, 8)
	xs, ys := synthData(rng, 3, 8)
	for step, observe := range []func() error{
		func() error { return nil },
		func() error { return cg.Append(cg.Config(5), xs[0], ys[0]) },
		func() error { return cg.Slide(cg.Config(2), xs[1], ys[1]) },
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

// PredictAll measures and evaluates each candidate against the k
// distinct training configurations and itself, m(k+1) configuration
// pairs, and the shared context once.
func TestContextualPredictAllHoistsContextRepeatedConfigs(t *testing.T) {
	const n, m = 80, 140
	for _, k := range []int{1, 8} {
		rng := rand.New(rand.NewSource(65))
		cg, cfg, ctx := countedRepeated(t, rng, n, k, 40, 8)
		cands, _ := synthData(rng, m, 40)
		x, _ := synthData(rng, 1, 8)
		cg.PredictAll(cands, x[0])
		expectCounts(t, fmt.Sprintf("k=%d PredictAll", k), cfg, ctx, m*(k+1), m*(k+1), n+1, n+1)
	}
}

// At the window cap a Slide allocates nothing, whether the window holds
// one configuration, a few or only distinct ones: the index renumbers in
// place, a new row's configuration values are computed in the row
// itself, and the Gram matrix and its factorization are pooled. The race
// detector makes sync.Pool drop what is put into it at random, so there
// the count is not checked.
func TestSlideAllocatesNothingRepeatedConfigs(t *testing.T) {
	const n = 80
	for _, k := range []int{1, 8, n} {
		rng := rand.New(rand.NewSource(66))
		configs, ctxs, perfs := repeated(rng, n, k, 40, 8)
		cg := NewContextual(40, 8)
		if err := cg.Fit(configs, ctxs, perfs); err != nil {
			t.Fatal(err)
		}
		more, ys := synthData(rng, 2*n, 8)
		rows := make([][]float64, len(more))
		for i := range rows {
			rows[i] = Joint(configs[i%n], more[i])
		}
		i := 0
		allocs := testing.AllocsPerRun(n, func() {
			if err := cg.gp.Slide(rows[i], ys[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		checkIndex(t, fmt.Sprintf("k=%d after %d slides", k, i), cg)
		if !raceEnabled && allocs != 0 {
			t.Fatalf("k=%d: Slide allocated %v times, want 0", k, allocs)
		}
	}
}

// perRow makes c the per-row reference: without its configuration index
// every row is measured and evaluated on its own, and a hyperparameter
// search's trial keeps its whole kernel resident, as the GP did before
// it indexed configurations. Its predictions come from refPredictAbove.
func perRow(c *ContextualGP) *ContextualGP {
	c.gp.ix = nil
	return c
}

// refPredictAbove is PredictAbove evaluating the configuration kernel
// once per training row.
func refPredictAbove(c *ContextualGP, configs [][]float64, ctx []float64, floor float64) (means, variances []float64) {
	d, kc, w := c.configDim, c.kern.KConfig, c.kern.KConfig.NumStats()
	kCtx, ctxPrior := c.ctxRow(ctx), Eval(c.kern.KCtx, ctx, ctx)
	return c.gp.predictAll(len(configs), max(c.Len(), 1)*w, floor, func(j int, st, k []float64) float64 {
		q := configs[j][:d]
		kc.StatsRow(c.gp.x[:len(k)], 0, q, w, st)
		kc.AddOfStatsRow(st, w, k)
		for i := range k {
			k[i] += kCtx[i]
		}
		kc.Stats(q, q, st[:w])
		return kc.OfStats(st[:w]) + ctxPrior
	})
}

// refBestByPosterior is BestByPosterior scoring every row.
func refBestByPosterior(c *ContextualGP, ctx []float64) (idx int, mean float64) {
	g := c.gp
	if !g.fresh {
		return 0, 0
	}
	n := g.Len()
	kstar := make([]float64, n)
	kCtx := c.ctxRow(ctx)
	bestIdx, bestMu := 0, math.Inf(-1)
	for p := 0; p < n; p++ {
		for i := range kstar {
			v := g.kres[tri(max(i, p))+min(i, p)]
			v += kCtx[i]
			kstar[i] = v
		}
		if mu := mathx.Dot(kstar, g.alpha)*g.yStd + g.yMean; mu > bestMu {
			bestIdx, bestMu = p, mu
		}
	}
	return bestIdx, bestMu
}

// checkIndex compares c's index with one derived from its rows by brute
// force: rows share a configuration exactly when their configuration
// coordinates are bitwise equal, numbered by first appearance.
func checkIndex(t *testing.T, step string, c *ContextualGP) {
	t.Helper()
	ix, x := c.gp.ix, c.gp.x
	if len(ix.of) != len(x) {
		t.Fatalf("%s: index covers %d of %d rows", step, len(ix.of), len(x))
	}
	var reps []int
	for i := range x {
		a := -1
		for b, r := range reps {
			if sameBits(x[r][:c.configDim], x[i][:c.configDim]) {
				a = b
				break
			}
		}
		if a < 0 {
			a = len(reps)
			reps = append(reps, i)
		}
		if ix.of[i] != a {
			t.Fatalf("%s: row %d indexed as configuration %d, want %d", step, i, ix.of[i], a)
		}
	}
	if fmt.Sprint(reps) != fmt.Sprint(ix.reps) {
		t.Fatalf("%s: first rows %v, want %v", step, ix.reps, reps)
	}
}

// sameAsPerRow compares everything the indexed model derived with the
// per-row reference, bit for bit: triangles, factor, weights,
// predictions above several floors and the incumbent.
func sameAsPerRow(t *testing.T, step string, live, ref *ContextualGP, cands [][]float64, ctx []float64) {
	t.Helper()
	checkIndex(t, step, live)
	ga, gb := live.gp, ref.gp
	if !sameBits(ga.Kern.Hyper(), gb.Kern.Hyper()) || math.Float64bits(ga.Noise) != math.Float64bits(gb.Noise) ||
		ga.fresh != gb.fresh || ga.appends != gb.appends || math.Float64bits(ga.jitter) != math.Float64bits(gb.jitter) ||
		!sameBits(ga.y, gb.y) || !sameBits(ga.stats, gb.stats) || !sameBits(ga.kres, gb.kres) {
		t.Fatalf("%s: hyperparameters, targets or triangles differ from the per-row reference", step)
	}
	if ga.fresh && (!sameBits(ga.chol, gb.chol) || !sameBits(ga.alpha, gb.alpha)) {
		t.Fatalf("%s: factor or weights differ from the per-row reference", step)
	}
	all, _ := live.PredictAll(cands, ctx)
	for _, floor := range []float64{math.Inf(-1), all[0], all[len(all)/2], math.Inf(1)} {
		ms, vs := live.PredictAbove(cands, ctx, floor)
		rms, rvs := refPredictAbove(ref, cands, ctx, floor)
		if !sameBits(ms, rms) || !sameBits(vs, rvs) {
			t.Fatalf("%s: PredictAbove(floor %v) differs from the per-row reference", step, floor)
		}
	}
	idx, mu, _ := live.BestByPosterior(ctx)
	ridx, rmu := refBestByPosterior(ref, ctx)
	if idx != ridx || math.Float64bits(mu) != math.Float64bits(rmu) {
		t.Fatalf("%s: BestByPosterior %d (%v), per-row reference %d (%v)", step, idx, mu, ridx, rmu)
	}
}

// Property: a model that evaluates its configuration kernel once per
// distinct configuration is the per-row model bit for bit, through every
// operation that changes the training set or the hyperparameters, on
// windows that mix repeated and distinct configurations, configurations
// one ulp apart in the last coordinate, −0 next to +0 and configurations
// that differ only in zero-weight coordinates, sequentially and on the
// worker pool.
func TestDistinctConfigsBitIdenticalToPerRow(t *testing.T) {
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			mathx.SetMaxWorkers(workers)
			defer mathx.SetMaxWorkers(0)
			for seed := int64(0); seed < 4; seed++ {
				distinctConfigsProperty(t, rand.New(rand.NewSource(70+seed)))
			}
		})
	}
}

func distinctConfigsProperty(t *testing.T, rng *rand.Rand) {
	const dim, ctxDim, window = 6, 3, 24
	weights := []float64{1, 0, 0.35, 1, 0} // coordinates 1 and 4 do not move the distance
	pool, _ := synthData(rng, 3, dim)
	pool[0][3] = 0
	for _, vary := range []func(c []float64){
		func(c []float64) { c[dim-1] = math.Nextafter(c[dim-1], 2) },
		func(c []float64) { c[3] = math.Copysign(0, -1) },
		func(c []float64) { c[1] += 0.25 },
		func(c []float64) { c[4] = -c[4] },
	} {
		c := mathx.VecClone(pool[0])
		vary(c)
		pool = append(pool, c)
	}
	config := func() []float64 {
		if rng.Intn(5) == 0 {
			c, _ := synthData(rng, 1, dim)
			return c[0]
		}
		return mathx.VecClone(pool[rng.Intn(len(pool))])
	}
	observation := func() (c, x []float64, y float64) {
		xs, ys := synthData(rng, 1, ctxDim)
		return config(), xs[0], ys[0]
	}
	cands := make([][]float64, 20)
	for i := range cands {
		cands[i] = config()
	}
	models := func() (*ContextualGP, *ContextualGP) {
		return NewContextualWeighted(dim, ctxDim, weights), perRow(NewContextualWeighted(dim, ctxDim, weights))
	}
	live, ref := models()
	configs, ctxs, perfs := make([][]float64, 8), make([][]float64, 8), make([]float64, 8)
	for i := range configs {
		configs[i], ctxs[i], perfs[i] = observation()
	}
	for _, c := range []*ContextualGP{live, ref} {
		if err := c.Fit(configs, ctxs, perfs); err != nil {
			t.Fatal(err)
		}
	}
	q, _ := synthData(rng, 1, ctxDim)
	sameAsPerRow(t, "Fit", live, ref, cands, q[0])
	for step := 0; step < 120; step++ {
		var name string
		switch op := rng.Intn(10); {
		case op < 5:
			c, x, y := observation()
			name = "Append"
			observe := func(m *ContextualGP) error { return m.Append(c, x, y) }
			if live.Len() == window {
				name = "Slide"
				observe = func(m *ContextualGP) error { return m.Slide(c, x, y) }
			}
			if err, rerr := observe(live), observe(ref); (err == nil) != (rerr == nil) {
				t.Fatalf("step %d %s: %v, per-row reference %v", step, name, err, rerr)
			}
		case op == 5:
			name = "OptimizeHyperparams"
			r, rr := live.OptimizeHyperparams(20), ref.OptimizeHyperparams(20)
			if (r == nil) != (rr == nil) || r != nil && (!sameBits(r.Hyper, rr.Hyper) || math.Float64bits(r.Noise) != math.Float64bits(rr.Noise)) {
				t.Fatalf("step %d: refit %v, per-row reference %v", step, r, rr)
			}
		case op == 6:
			name = "SetHyperparams"
			p := live.Hyperparams()
			for d := range p {
				p[d] += 0.3 * rng.NormFloat64()
			}
			if err, rerr := live.SetHyperparams(p), ref.SetHyperparams(p); (err == nil) != (rerr == nil) {
				t.Fatalf("step %d SetHyperparams: %v, per-row reference %v", step, err, rerr)
			}
		case op == 7:
			name = "InstallRefit"
			h := live.gp.Kern.Hyper()
			for d := range h {
				h[d] *= math.Exp(0.2 * rng.NormFloat64())
			}
			r := Refit{Hyper: h, Noise: live.gp.Noise * math.Exp(0.2*rng.NormFloat64())}
			if err, rerr := live.InstallRefit(r), ref.InstallRefit(r); (err == nil) != (rerr == nil) {
				t.Fatalf("step %d InstallRefit: %v, per-row reference %v", step, err, rerr)
			}
		case op == 8:
			name = "SetState"
			live = roundTrip(t, live, dim, ctxDim, weights)
			ref = roundTripInto(t, ref, perRow(NewContextualWeighted(dim, ctxDim, weights)))
		default:
			name = "Fit"
			c, x, y := live.Observations()
			h, noise := live.gp.Kern.Hyper(), live.gp.Noise
			live, ref = models()
			for _, m := range []*ContextualGP{live, ref} {
				m.gp.Kern.SetHyper(h)
				m.gp.Noise = noise
				if err := m.Fit(c, x, y); err != nil {
					t.Fatal(err)
				}
			}
		}
		q, _ := synthData(rng, 1, ctxDim)
		sameAsPerRow(t, fmt.Sprintf("step %d %s", step, name), live, ref, cands, q[0])
	}
}
