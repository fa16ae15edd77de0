package gp

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func synthData(rng *rand.Rand, n, dim int) (xs [][]float64, ys []float64) {
	xs = make([][]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		s := 0.0
		for d := range x {
			x[d] = rng.Float64()
			s += math.Sin(3 * x[d])
		}
		xs[i] = x
		ys[i] = s + 0.1*rng.NormFloat64()
	}
	return xs, ys
}

// Property: conditioning one observation at a time through the
// incremental Append path agrees with a single fresh Fit — means and
// variances within 1e-6 at random query points.
func TestIncrementalAppendMatchesFreshFit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		dim := 1 + rng.Intn(4)
		xs, ys := synthData(rng, n, dim)

		inc := New(NewMatern52(1, 0.4), 1e-4)
		for i := range xs {
			if err := inc.Append(xs[i], ys[i]); err != nil {
				return false
			}
		}
		fresh := New(NewMatern52(1, 0.4), 1e-4)
		if err := fresh.Fit(xs, ys); err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			q := make([]float64, dim)
			for d := range q {
				q[d] = rng.Float64() * 1.5
			}
			mi, vi := inc.Predict(q)
			mf, vf := fresh.Predict(q)
			if math.Abs(mi-mf) > 1e-6 || math.Abs(vi-vf) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the batched PredictAll agrees with per-point Predict.
func TestPredictAllMatchesPredict(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		dim := 1 + rng.Intn(3)
		xs, ys := synthData(rng, n, dim)
		g := New(NewMatern52(1, 0.4), 1e-4)
		if err := g.Fit(xs, ys); err != nil {
			return true // degenerate fit is allowed to fail
		}
		m := 1 + rng.Intn(60)
		qs := make([][]float64, m)
		for j := range qs {
			q := make([]float64, dim)
			for d := range q {
				q[d] = rng.Float64() * 2
			}
			qs[j] = q
		}
		mus, vars := g.PredictAll(qs)
		for j, q := range qs {
			mu, v := g.Predict(q)
			if math.Abs(mus[j]-mu) > 1e-9 || math.Abs(vars[j]-v) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// PredictAll on an unfitted GP returns the prior, like Predict.
func TestPredictAllPriorBeforeFit(t *testing.T) {
	g := New(NewMatern52(2, 1), 1e-3)
	mus, vars := g.PredictAll([][]float64{{0.3}, {0.8}})
	for j := range mus {
		if mus[j] != 0 || math.Abs(vars[j]-2) > 1e-9 {
			t.Fatalf("prior mismatch: mu=%v var=%v", mus[j], vars[j])
		}
	}
}

// Appending past the periodic-refactorization boundary keeps the
// posterior consistent with a fresh fit (exercise appends > refactorEvery).
func TestIncrementalAppendAcrossRefactorBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := refactorEvery + 20
	xs, ys := synthData(rng, n, 2)
	inc := New(NewMatern52(1, 0.4), 1e-4)
	for i := range xs {
		if err := inc.Append(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	fresh := New(NewMatern52(1, 0.4), 1e-4)
	if err := fresh.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64(), rng.Float64()}
		mi, vi := inc.Predict(q)
		mf, vf := fresh.Predict(q)
		if math.Abs(mi-mf) > 1e-6 || math.Abs(vi-vf) > 1e-6 {
			t.Fatalf("diverged after %d appends: mean %v vs %v, var %v vs %v", n, mi, mf, vi, vf)
		}
	}
}

// ContextualGP.PredictAll agrees with per-point ContextualGP.Predict.
func TestContextualPredictAllMatchesPredict(t *testing.T) {
	cg := NewContextual(2, 1)
	rng := rand.New(rand.NewSource(9))
	var configs, ctxs [][]float64
	var ys []float64
	for i := 0; i < 15; i++ {
		configs = append(configs, []float64{rng.Float64(), rng.Float64()})
		ctxs = append(ctxs, []float64{rng.Float64()})
		ys = append(ys, rng.NormFloat64())
	}
	if err := cg.Fit(configs, ctxs, ys); err != nil {
		t.Fatal(err)
	}
	ctx := []float64{0.4}
	cands := make([][]float64, 50)
	for j := range cands {
		cands[j] = []float64{rng.Float64(), rng.Float64()}
	}
	mus, vars := cg.PredictAll(cands, ctx)
	for j, c := range cands {
		mu, v := cg.Predict(c, ctx)
		if math.Abs(mus[j]-mu) > 1e-9 || math.Abs(vars[j]-v) > 1e-9 {
			t.Fatalf("contextual batch mismatch at %d", j)
		}
	}
}

// countingKernel counts the pairs measured (Stats) and the kernel
// values computed (OfStats) on the kernel it wraps, one per entry
// whether they go through the per-pair or the row forms, and the
// SetParams calls, clones included (hyperopt trials run on clones). The
// counters are atomic because PredictAll fans out across goroutines.
type countingKernel struct {
	Kernel
	stats, ofStats, params *atomic.Int64
}

func counting(k Kernel) countingKernel {
	return countingKernel{k, new(atomic.Int64), new(atomic.Int64), new(atomic.Int64)}
}

func (k countingKernel) reset() {
	k.stats.Store(0)
	k.ofStats.Store(0)
	k.params.Store(0)
}

func (k countingKernel) SetParams(p []float64) {
	k.params.Add(1)
	k.Kernel.SetParams(p)
}

func (k countingKernel) Stats(a, b, out []float64) {
	k.stats.Add(1)
	k.Kernel.Stats(a, b, out)
}

func (k countingKernel) OfStats(s []float64) float64 {
	k.ofStats.Add(1)
	return k.Kernel.OfStats(s)
}

func (k countingKernel) StatsRow(rows [][]float64, lo int, q []float64, stride int, out []float64) {
	k.stats.Add(int64(len(rows)))
	k.Kernel.StatsRow(rows, lo, q, stride, out)
}

func (k countingKernel) AddOfStatsRow(s []float64, stride int, out []float64) {
	k.ofStats.Add(int64(len(out)))
	k.Kernel.AddOfStatsRow(s, stride, out)
}

func (k countingKernel) Clone() Kernel {
	return countingKernel{k.Kernel.Clone(), k.stats, k.ofStats, k.params}
}

// The incremental path must do an order less work than a full refit
// per observation, counted in pair measurements so the assertion cannot
// depend on machine load: n sequential appends measure O(n²) pairs in
// total (one new triangle row each) against O(n³) for a fresh Fit on
// every prefix, with identical predictions.
func TestIncrementalSpeedupOverFullRefit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 200
	xs, ys := synthData(rng, n, 6)

	condition := func(step func(g *GP, i int) error) (*GP, int64) {
		k := counting(NewMatern52(1, 0.3))
		g := New(k, 1e-4)
		for i := range xs {
			if err := step(g, i); err != nil {
				t.Fatal(err)
			}
		}
		return g, k.stats.Load()
	}
	inc, incStats := condition(func(g *GP, i int) error { return g.Append(xs[i], ys[i]) })
	full, fullStats := condition(func(g *GP, i int) error { return g.Fit(xs[:i+1], ys[:i+1]) })

	qs, _ := synthData(rng, 50, 6)
	mi, vi := inc.PredictAll(qs)
	mf, vf := full.PredictAll(qs)
	for j := range qs {
		if math.Abs(mi[j]-mf[j]) > 1e-6 || math.Abs(vi[j]-vf[j]) > 1e-6 {
			t.Fatalf("incremental and full-refit predictions diverged at %d: mean %v vs %v, var %v vs %v",
				j, mi[j], mf[j], vi[j], vf[j])
		}
	}
	// One row per append is n(n+1)/2 measurements; one triangle per
	// append is n(n+1)(n+2)/6.
	if want := int64(tri(n)); incStats != want {
		t.Fatalf("incremental appends measured %d pairs, want exactly %d", incStats, want)
	}
	if fullStats < n*n*n/6 {
		t.Fatalf("full-refit arm measured only %d pairs, want O(n³) ≥ %d: it is no longer the reference", fullStats, n*n*n/6)
	}
}

// indefiniteKernel is positive-definite on non-negative inputs but
// produces an indefinite Gram matrix (off-diagonal -2) as soon as any
// negative coordinate appears — a handle for forcing factorization
// failures in tests. Its pair statistic is the kernel value itself.
type indefiniteKernel struct{}

func (indefiniteKernel) NumStats() int { return 1 }

func (indefiniteKernel) Stats(a, b, out []float64) {
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	switch {
	case same:
		out[0] = 1
	case a[0] < 0 || b[0] < 0:
		out[0] = -2
	default:
		out[0] = 0.5
	}
}
func (indefiniteKernel) OfStats(s []float64) float64 { return s[0] }

// The row forms of a test kernel are their definition: a loop over the
// per-pair forms.
func (k indefiniteKernel) StatsRow(rows [][]float64, lo int, q []float64, stride int, out []float64) {
	for i, x := range rows {
		k.Stats(x[lo:lo+len(q)], q, out[i*stride:])
	}
}
func (k indefiniteKernel) AddOfStatsRow(s []float64, stride int, out []float64) {
	for i := range out {
		out[i] += k.OfStats(s[i*stride:])
	}
}
func (indefiniteKernel) Params() []float64   { return nil }
func (indefiniteKernel) SetParams([]float64) {}
func (indefiniteKernel) Hyper() []float64    { return nil }
func (indefiniteKernel) SetHyper([]float64)  {}
func (k indefiniteKernel) Clone() Kernel     { return k }

// After a failed Fit (factorization error), Append must not extend the
// stale factor left over from the previous successful fit: it either
// recovers through a full refactorization or reports the error, and the
// GP must not serve a posterior from inconsistent state.
func TestAppendAfterFailedFitDoesNotUseStaleFactor(t *testing.T) {
	g := New(indefiniteKernel{}, 1e-4)
	good := [][]float64{{0.1}, {0.6}}
	if err := g.Fit(good, []float64{1, 2}); err != nil {
		t.Fatalf("benign fit failed: %v", err)
	}
	bad := [][]float64{{-0.1}, {0.6}}
	if err := g.Fit(bad, []float64{1, 2}); err == nil {
		t.Fatal("indefinite fit should fail")
	}
	// Appending a benign point leaves the Gram matrix indefinite (it
	// still contains the negative input), so the GP cannot recover; it
	// must refuse rather than extend the pre-failure factor.
	if err := g.Append([]float64{0.3}, 1.5); err == nil {
		t.Fatal("Append after failed fit silently succeeded against a stale factor")
	}
	if mu, v := g.Predict([]float64{0.3}); mu != 0 || v != 1 {
		t.Fatalf("unfitted GP must serve the prior, got mean=%v var=%v", mu, v)
	}
}

// Hyperparameter refit invalidates the cached factor correctly: after
// OptimizeHyperparams, further incremental appends stay consistent.
func TestAppendAfterHyperoptStaysConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	xs, ys := synthData(rng, 20, 2)
	g := New(NewMatern52(1, 0.5), 1e-3)
	for i := 0; i < 15; i++ {
		if err := g.Append(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	g.OptimizeHyperparams(40)
	for i := 15; i < 20; i++ {
		if err := g.Append(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	fresh := New(g.Kern.Clone(), g.Noise)
	if err := fresh.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		q := []float64{rng.Float64(), rng.Float64()}
		mi, vi := g.Predict(q)
		mf, vf := fresh.Predict(q)
		if math.Abs(mi-mf) > 1e-6 || math.Abs(vi-vf) > 1e-6 {
			t.Fatalf("post-hyperopt append diverged: mean %v vs %v, var %v vs %v", mi, mf, vi, vf)
		}
	}
}
