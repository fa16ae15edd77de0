package gp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Property: the row forms are the per-pair forms, bit for bit — every
// shipped kernel, at a column offset and a stride, with a row equal to
// the query (distance zero) and, for Split, with and without context
// coordinates.
func TestRowFormsBitIdenticalToPairForms(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	weighted := NewMatern52(1.3, 0.4)
	weighted.Weights = []float64{1, 0.35, 0.6}
	splitWeighted := NewMatern52(0.8, 0.25)
	splitWeighted.Weights = []float64{0.35}
	cases := []struct {
		name string
		k    Kernel
		dim  int // coordinates the kernel reads
	}{
		{"matern52", NewMatern52(1, 0.3), 6},
		{"matern52-weighted", weighted, 6},
		{"linear", NewLinear(0.2, 1), 4},
		{"linear-empty", NewLinear(0.2, 1), 0},
		{"split", NewSplit(5, splitWeighted, NewLinear(0.3, 0.7)), 8},
		{"split-empty-context", NewSplit(5, NewMatern52(1, 0.3), NewLinear(0.2, 1)), 5},
	}
	for _, tc := range cases {
		const n, lo, pad = 17, 2, 3
		w := tc.k.NumStats()
		stride := w + pad
		rows, _ := synthData(rng, n, lo+tc.dim)
		q := append([]float64(nil), rows[n/2][lo:]...) // one pair at distance zero

		st := make([]float64, n*stride)
		tc.k.StatsRow(rows, lo, q, stride, st)
		got := make([]float64, n)
		tc.k.AddOfStatsRow(st, stride, got)

		pair := make([]float64, w)
		for i, x := range rows {
			tc.k.Stats(x[lo:], q, pair)
			if !sameBits(st[i*stride:i*stride+w], pair) {
				t.Fatalf("%s row %d: StatsRow %v, Stats %v", tc.name, i, st[i*stride:i*stride+w], pair)
			}
			if want := tc.k.OfStats(pair); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s row %d: AddOfStatsRow %v, OfStats %v", tc.name, i, got[i], want)
			}
			if want := Eval(tc.k, x[lo:], q); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s row %d: row forms %v, Eval %v", tc.name, i, got[i], want)
			}
		}
		for i := range st { // the padding between pairs is not the kernel's
			if i%stride >= w && st[i] != 0 {
				t.Fatalf("%s: StatsRow wrote outside its slots at %d", tc.name, i)
			}
		}
		// No rows — an unfactorized model serving the prior — is no work.
		tc.k.StatsRow(nil, lo, q, stride, pair)
		tc.k.AddOfStatsRow(pair, stride, nil)
		// A leaf kernel adds to what is there.
		if _, composite := tc.k.(*Split); !composite {
			again := append([]float64(nil), got...)
			tc.k.AddOfStatsRow(st, stride, again)
			for i := range again {
				if want := got[i] + got[i]; math.Float64bits(again[i]) != math.Float64bits(want) {
					t.Fatalf("%s row %d: a second AddOfStatsRow gave %v, want %v", tc.name, i, again[i], want)
				}
			}
		}
	}
}

// A row shorter than the coordinates asked of it is refused even when
// its backing array is long enough to slice.
func TestStatsRowRefusesShortRow(t *testing.T) {
	short := make([]float64, 2, 8)
	for _, k := range []Kernel{NewMatern52(1, 0.3), NewLinear(0.2, 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T: StatsRow read past the end of a short row", k)
				}
			}()
			k.StatsRow([][]float64{short}, 1, []float64{0.1, 0.2, 0.3}, 1, make([]float64, 1))
		}()
	}
}

// PredictAbove screens the triangular solves, nothing else: every mean
// and every variance at or above the floor is PredictAll's bit for bit,
// and every candidate below it reports variance 0 — which no solved
// variance can be, since those are clamped from below at a positive
// value.
func TestPredictAboveScreenBitIdenticalToPredictAll(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const n, dim, ctxDim, m = 60, 7, 3, 100
	cg := NewContextualWeighted(dim, ctxDim, []float64{0.35})
	configs, perfs := synthData(rng, n, dim)
	ctxs, _ := synthData(rng, n, ctxDim)
	if err := cg.Fit(configs, ctxs, perfs); err != nil {
		t.Fatal(err)
	}
	cands, _ := synthData(rng, m, dim)
	x, _ := synthData(rng, 1, ctxDim)
	mus, vars := cg.PredictAll(cands, x[0])
	for _, v := range vars {
		if !(v > 0) {
			t.Fatalf("PredictAll reported variance %v: the screen could not be told from a solve", v)
		}
	}
	for _, floor := range []float64{math.Inf(-1), math.Inf(1), mus[0], mus[m/2]} {
		ms, vs := cg.PredictAbove(cands, x[0], floor)
		if !sameBits(ms, mus) {
			t.Fatalf("floor %v: means differ from PredictAll", floor)
		}
		solved := 0
		for j := range cands {
			want := 0.0
			if mus[j] >= floor {
				want = vars[j]
				solved++
			}
			if math.Float64bits(vs[j]) != math.Float64bits(want) {
				t.Fatalf("floor %v candidate %d (mean %v): variance %v, want %v", floor, j, mus[j], vs[j], want)
			}
		}
		if math.IsInf(floor, -1) && solved != m || math.IsInf(floor, 1) && solved != 0 {
			t.Fatalf("floor %v solved for %d of %d", floor, solved, m)
		}
	}
}

// A hyperparameter search allocates its trial model, one Gram matrix
// and the simplex once: the allocation count is a small constant, the
// same whether the budget is 15 likelihood evaluations or 60.
func TestHyperoptAllocsDoNotGrowWithEvaluations(t *testing.T) {
	allocs := func(maxEvals int) (perRun float64, evals int64) {
		cg, cfg, _ := countedContextual(t, rand.New(rand.NewSource(53)), 80, 40, 8)
		const runs = 3
		perRun = testing.AllocsPerRun(runs, func() { cg.OptimizeHyperparams(maxEvals) })
		return perRun, cfg.ofStats.Load() / int64(tri(80)) / (runs + 1) // AllocsPerRun warms up once
	}
	few, fewEvals := allocs(15)
	many, manyEvals := allocs(60)
	t.Logf("allocs %v at %d evaluations, %v at %d", few, fewEvals, many, manyEvals)
	if manyEvals < fewEvals+30 {
		t.Fatalf("budgets 15 and 60 ran %d and %d evaluations per search: no contrast", fewEvals, manyEvals)
	}
	// The pooled Gram matrix may or may not be there to reuse, a few
	// mallocs either way; one per evaluation would be 45 more.
	if many > few+8 || many > 48 {
		t.Fatalf("OptimizeHyperparams allocated %v times at %d evaluations and %v at %d, want a constant ≤ 48",
			many, manyEvals, few, fewEvals)
	}
}

// At the window cap one observation conditions in place: the statistic
// and value triangles shift, the Gram matrix and its factorization are
// pooled scratch and the packed factor and weights are overwritten, so a
// Slide allocates far less than one n×n matrix. The race detector makes sync.Pool drop what is put into it at
// random, so under it only the resident buffers are checked.
func TestSlideAllocatesNoMatrix(t *testing.T) {
	const n, slides = 80, 16
	rng := rand.New(rand.NewSource(54))
	cg, _, _ := countedContextual(t, rng, n, 40, 8)
	cs, ys := synthData(rng, slides+1, 40)
	xs, _ := synthData(rng, slides+1, 8)
	slide := func(i int) {
		if err := cg.Slide(cs[i], xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	slide(slides) // fills the pool
	stats, values, factor, weights := &cg.gp.stats[0], &cg.gp.kres[0], &cg.gp.chol[0], &cg.gp.alpha[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < slides; i++ {
		slide(i)
	}
	runtime.ReadMemStats(&after)
	if stats != &cg.gp.stats[0] || values != &cg.gp.kres[0] || factor != &cg.gp.chol[0] || weights != &cg.gp.alpha[0] {
		t.Fatal("Slide at an unchanged size replaced a triangle, the factor or the weights instead of overwriting them")
	}
	if perSlide := (after.TotalAlloc - before.TotalAlloc) / slides; !raceEnabled && perSlide >= n*n*8/4 {
		t.Fatalf("Slide allocated %d bytes, want well under one %d×%d matrix (%d)", perSlide, n, n, n*n*8)
	}
}
