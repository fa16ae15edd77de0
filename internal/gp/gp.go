package gp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/mathx"
)

// refactorEvery bounds how many incremental Cholesky extensions are
// applied before a full refactorization, for numerical hygiene: the
// extension is backward-stable per step but errors compound, so the
// factor is rebuilt from the cached pair statistics every so often.
const refactorEvery = 64

// GP is an exact Gaussian-process regressor. Targets are standardized
// internally; predictions are returned in the original units.
//
// Every pair of training points is measured once: the GP keeps the
// packed lower triangle of hyperparameter-free pair statistics (see
// Kernel), a packed triangle of kernel values at the current
// hyperparameters and the packed Cholesky factor, not a Gram matrix.
// Append adds one row to each triangle and extends the factor in O(n²);
// Slide shifts the triangles and adds one row; a change of
// hyperparameters re-evaluates the value triangle from the statistics,
// without reading a coordinate. A contextual GP indexes its rows by
// distinct configuration (configIndex) and evaluates its configuration
// kernel once per distinct configuration or pair of them, not once per
// row or pair of rows. The Gram matrix and the factorization
// are pooled scratch and the new factor and weights overwrite the old
// ones when the size is unchanged, so conditioning at a fixed size
// allocates nothing.
type GP struct {
	Kern  Kernel
	Noise float64 // observation noise variance (in standardized units)

	x     [][]float64
	yRaw  []float64 // targets in original units
	y     []float64 // standardized targets
	yMean float64
	yStd  float64

	// stats holds Kern.NumStats() floats for each training pair (i, j ≤ i)
	// at pair offset i(i+1)/2 + j, allocated exact-size (every resident
	// model keeps one, so spare capacity would be live heap).
	stats []float64
	// kres holds res's value for each training pair at the current
	// hyperparameters, one float per pair, packed like stats. The Gram
	// matrix is kres plus the values of rest, whose statistics follow
	// res's in each pair, summed as Split sums its parts. New makes the
	// whole kernel resident; a contextual GP keeps only its configuration
	// kernel, whose Matérn values are the costly ones.
	kres      []float64
	res, rest Kernel
	jitter    float64   // diagonal jitter baked into chol
	chol      []float64 // the factor's lower triangle, row by row
	alpha     []float64
	fresh     bool
	appends   int // incremental extensions since the last full factorization

	ix *configIndex // nil unless contextual
}

// New returns an unfitted GP with the given kernel and noise variance.
func New(k Kernel, noise float64) *GP {
	return &GP{Kern: k, Noise: noise, res: k}
}

// Len returns the number of training observations.
func (g *GP) Len() int { return len(g.x) }

// tri is the number of pairs (i, j ≤ i) in the first n rows.
func tri(n int) int { return n * (n + 1) / 2 }

// statsRow is row i of the statistic triangle: the i+1 pairs (i, j ≤ i).
func (g *GP) statsRow(i, w int) []float64 {
	return g.stats[tri(i)*w : tri(i+1)*w]
}

// measure fills row i of the statistic triangle, point i against every
// earlier point and itself, and then row i of the value triangle. A
// contextual GP's index must cover rows 0..i exactly: point i's
// configuration is measured and evaluated against each distinct
// configuration a once, into slot a of both rows, and then copied to
// the slots of the rows that share it, from the last row down (of is at
// most the row, so each slot is read before it is overwritten); its
// context is measured against every row.
func (g *GP) measure(i, w int) {
	row, r := g.statsRow(i, w), g.kres[tri(i):tri(i+1)]
	ix := g.ix
	if ix == nil {
		g.Kern.StatsRow(g.x[:i+1], 0, g.x[i], w, row)
		clear(r)
		g.res.AddOfStatsRow(row, w, r)
		return
	}
	q, rw := g.x[i][:ix.dim], g.res.NumStats()
	for a, p := range ix.reps {
		g.res.Stats(g.x[p][:ix.dim], q, row[a*w:])
	}
	v := r[:len(ix.reps)]
	clear(v)
	g.res.AddOfStatsRow(row, w, v)
	g.rest.StatsRow(g.x[:i+1], ix.dim, g.x[i][ix.dim:], w, row[rw:])
	for j := i; j >= 0; j-- {
		a := ix.of[j]
		copy(row[j*w:j*w+rw], row[a*w:])
		r[j] = r[a]
	}
}

// rebuild re-evaluates the value triangle after a change of
// hyperparameters. A plain GP evaluates its whole statistic triangle in
// one row call. A contextual GP evaluates its configuration kernel once
// per distinct pair, on d from distinctPairs, and copies each value to
// the row pairs that share it.
func (g *GP) rebuild(d []float64) {
	n := len(g.x)
	if len(g.kres) != tri(n) {
		g.kres = make([]float64, tri(n))
	}
	if g.ix == nil {
		clear(g.kres)
		g.res.AddOfStatsRow(g.stats, g.Kern.NumStats(), g.kres)
		return
	}
	rw, m := g.res.NumStats(), tri(len(g.ix.reps))
	v := d[m*rw:]
	clear(v)
	g.res.AddOfStatsRow(d, rw, v)
	for i, a := range g.ix.of {
		r := g.kres[tri(i):tri(i+1)]
		for j, b := range g.ix.of[:i+1] {
			r[j] = v[tri(max(a, b))+min(a, b)]
		}
	}
}

// distinctPairs is rebuild's input: the configuration statistics of each
// distinct pair of configurations, read at their first rows and packed
// as a triangle over the distinct configurations, followed by room for
// their values; nil for a plain GP. The statistics change only with the
// training set, so a hyperparameter search gathers them once for all
// its evaluations.
func (g *GP) distinctPairs() []float64 {
	if g.ix == nil {
		return nil
	}
	w, rw, m := g.Kern.NumStats(), g.res.NumStats(), tri(len(g.ix.reps))
	d := make([]float64, m*rw+m)
	for a, ra := range g.ix.reps {
		for b, rb := range g.ix.reps[:a+1] {
			copy(d[(tri(a)+b)*rw:(tri(a)+b+1)*rw], g.stats[(tri(ra)+rb)*w:])
		}
	}
	return d
}

// gramRow writes row i of the Gram matrix, noise aside, to row.
func (g *GP) gramRow(i, w int, row []float64) {
	copy(row, g.kres[tri(i):])
	if g.rest != nil {
		g.rest.AddOfStatsRow(g.statsRow(i, w)[g.res.NumStats():], w, row)
	}
}

// Fit conditions the GP on inputs X and targets y. The outer slice of x
// is copied (Append grows it); the rows are kept by reference.
func (g *GP) Fit(x [][]float64, y []float64) error {
	if len(x) != len(y) {
		return errors.New("gp: X/y length mismatch")
	}
	if len(x) == 0 {
		return errors.New("gp: empty training set")
	}
	g.condition(x, y)
	return g.refactor()
}

// condition installs a training set and what is derived from it: the
// standardized targets and the two triangles, one measured row per
// point as Append measures it.
func (g *GP) condition(x [][]float64, y []float64) {
	g.x = append([][]float64(nil), x...)
	g.yRaw = mathx.VecClone(y)
	g.standardize()
	w := g.Kern.NumStats()
	g.stats = make([]float64, tri(len(x))*w)
	g.kres = make([]float64, tri(len(x)))
	g.ix.reset()
	for i := range g.x {
		g.ix.add(g.x[:i+1])
		g.measure(i, w)
	}
}

// State is a GP's exact state apart from its training set, which the
// owner exports in its own form: the hyperparameters as held, and the
// factor with the jitter baked into it. It is stored, not recomputed,
// because an appended factor (CholeskyExtend) rounds differently from a
// fresh one. SetState rebuilds the rest from the training set.
type State struct {
	Kern  []float64 `json:"kern"`
	Noise float64   `json:"noise"`
	// Chol is the factor's lower triangle, row by row (only when Fresh).
	Chol    mathx.Floats `json:"chol,omitempty"`
	Alpha   mathx.Floats `json:"alpha,omitempty"`
	Jitter  float64      `json:"jitter,omitempty"`
	Appends int          `json:"appends,omitempty"`
	Fresh   bool         `json:"fresh,omitempty"`
}

// State exports the GP's state (see State).
func (g *GP) State() State {
	st := State{Kern: g.Kern.Hyper(), Noise: g.Noise, Jitter: g.jitter, Appends: g.appends, Fresh: g.fresh}
	if g.fresh {
		st.Chol, st.Alpha = mathx.VecClone(g.chol), mathx.VecClone(g.alpha)
	}
	return st
}

// SetState makes an unfitted GP the one that exported st on the
// training set x, y: the triangles and standardized targets are rebuilt
// bit for bit, the factor and weights installed as stored. A
// state whose shapes do not fit the training set or the kernel is
// rejected, and so is a factor with a diagonal entry that is not
// positive, which no factorization or extension produces.
func (g *GP) SetState(x [][]float64, y []float64, st State) error {
	n := len(x)
	switch {
	case len(y) != n:
		return fmt.Errorf("gp: %d targets for %d inputs", len(y), n)
	case len(st.Kern) != len(g.Kern.Hyper()):
		return fmt.Errorf("gp: %d kernel hyperparameters, want %d", len(st.Kern), len(g.Kern.Hyper()))
	case st.Fresh && (len(st.Chol) != tri(n) || len(st.Alpha) != n):
		return fmt.Errorf("gp: a factor of %d entries and %d weights for %d inputs, want %d and %d", len(st.Chol), len(st.Alpha), n, tri(n), n)
	case st.Appends < 0:
		return fmt.Errorf("gp: negative extension count %d", st.Appends)
	}
	if st.Fresh {
		for i := 0; i < n; i++ {
			if d := st.Chol[tri(i+1)-1]; !(d > 0) {
				return fmt.Errorf("gp: factor diagonal entry %d (chol[%d]) is %v, want > 0", i, tri(i+1)-1, d)
			}
		}
	}
	g.Kern.SetHyper(st.Kern)
	g.Noise = st.Noise
	if n > 0 {
		g.condition(x, y)
	}
	if st.Fresh {
		g.chol, g.alpha = mathx.VecClone(st.Chol), st.Alpha
	}
	g.jitter, g.appends, g.fresh = st.Jitter, st.Appends, st.Fresh
	return nil
}

// Append adds one observation: one new row of each triangle and, when a
// current factor is available, an O(n²) rank-1 Cholesky extension;
// otherwise — and periodically, for numerical hygiene — a full
// refactorization.
func (g *GP) Append(x []float64, y float64) error {
	if len(g.x) == 0 {
		return g.Fit([][]float64{x}, []float64{y})
	}
	g.x = append(g.x, x)
	g.ix.add(g.x)
	g.yRaw = append(g.yRaw, y)
	g.standardize()
	n := len(g.x)
	w := g.Kern.NumStats()
	g.stats = append(make([]float64, 0, tri(n)*w), g.stats...)[:tri(n)*w]
	g.kres = append(make([]float64, 0, tri(n)), g.kres...)[:tri(n)]
	g.measure(n-1, w)
	// !fresh covers a previously failed factorization: g.chol would be a
	// stale factor of older training data, so extending it would silently
	// produce an inconsistent posterior — refactor instead.
	if !g.fresh || g.appends >= refactorEvery {
		return g.refactor()
	}
	row := make([]float64, n)
	g.gramRow(n-1, w, row)
	row[n-1] += g.Noise
	l, err := mathx.CholeskyExtend(g.chol, row[:n-1], row[n-1]+g.jitter)
	if err != nil {
		// Extension lost positive-definiteness: fall back to a fresh
		// (jittered) factorization.
		return g.refactor()
	}
	g.chol = l
	g.appends++
	g.alpha = mathx.CholeskySolve(l, g.y)
	g.fresh = true
	return nil
}

// Slide drops the oldest observation and adds (x, y): the sliding
// window that bounds a model's cost (§5.3). Both triangles move up one
// row and column in place and gain one measured row, and the factor is
// rebuilt, so the result is bit-identical to Fit on the shifted window
// at n pair measurements and n resident-kernel values (one per distinct
// configuration, for a contextual GP's) instead of n(n+1)/2 of each.
func (g *GP) Slide(x []float64, y float64) error {
	n := len(g.x)
	if n == 0 {
		return g.Fit([][]float64{x}, []float64{y})
	}
	copy(g.x, g.x[1:])
	g.x[n-1] = x
	g.ix.shift()
	g.ix.add(g.x)
	copy(g.yRaw, g.yRaw[1:])
	g.yRaw[n-1] = y
	g.standardize()
	w := g.Kern.NumStats()
	for i := 1; i < n; i++ {
		copy(g.stats[tri(i-1)*w:tri(i)*w], g.stats[(tri(i)+1)*w:])
		copy(g.kres[tri(i-1):tri(i)], g.kres[tri(i)+1:])
	}
	g.measure(n-1, w)
	return g.refactor()
}

// standardize recomputes the target standardization from yRaw. It is
// O(n) and reuses the standardized buffer across calls.
func (g *GP) standardize() {
	g.yMean = mathx.Mean(g.yRaw)
	g.yStd = mathx.StdDev(g.yRaw)
	// Guard the degenerate scale: with one observation (or nearly
	// constant targets) the sample std collapses, which would shrink the
	// posterior's raw-unit uncertainty to nothing and make every
	// candidate look provably safe. Assume at least 10% relative scale.
	if floor := 0.10 * math.Abs(g.yMean); g.yStd < floor {
		g.yStd = floor
	}
	if g.yStd == 0 {
		g.yStd = 1
	}
	if cap(g.y) < len(g.yRaw) {
		// Grow with headroom so successive Appends amortize instead of
		// reallocating every call.
		g.y = make([]float64, len(g.yRaw), 2*len(g.yRaw))
	}
	g.y = g.y[:len(g.yRaw)]
	for i, v := range g.yRaw {
		g.y[i] = (v - g.yMean) / g.yStd
	}
}

// gramPool holds the transient Gram matrices and factorizations of
// refactor. A GC cycle empties it, so the scratch is never part of a
// model's resident size.
var gramPool sync.Pool

// getGram returns an n×n matrix with arbitrary contents.
func getGram(n int) *mathx.Matrix {
	if m, ok := gramPool.Get().(*mathx.Matrix); ok && cap(m.Data) >= n*n {
		m.Rows, m.Cols, m.Data = n, n, m.Data[:n*n]
		return m
	}
	return mathx.NewMatrix(n, n)
}

// refactor rebuilds the factor and weights for the current kernel and
// noise. Called on Fit, Slide, periodically on Append, and whenever
// hyperparameters change.
func (g *GP) refactor() error {
	gram, l := getGram(len(g.x)), getGram(len(g.x))
	defer gramPool.Put(gram)
	defer gramPool.Put(l)
	return g.factorize(gram, l)
}

// factorize is refactor on the caller's two n×n scratch matrices: the
// Gram matrix from the value triangle and the statistics (the lower
// triangle only, which is all Cholesky reads, so the scratch needs no
// clearing), and its factorization, packed over the old factor, with l
// as the factorization's scratch. Every reader of the factor checks
// fresh first.
func (g *GP) factorize(gram, l *mathx.Matrix) error {
	n := len(g.x)
	w := g.Kern.NumStats()
	for i := 0; i < n; i++ {
		row := gram.Data[i*n : i*n+i+1]
		g.gramRow(i, w, row)
		row[i] += g.Noise
	}
	if len(g.chol) != tri(n) {
		g.chol = make([]float64, tri(n))
	}
	if len(g.alpha) != n {
		g.alpha = make([]float64, n)
	}
	g.fresh = false
	jit, err := mathx.CholeskyJitter(g.chol, l, gram, 1e-3)
	if err != nil {
		return err
	}
	g.jitter = jit
	g.appends = 0
	copy(g.alpha, g.y)
	mathx.CholeskySolveInPlace(g.chol, g.alpha)
	g.fresh = true
	return nil
}

// Predict returns the posterior mean and variance at x, in original units.
// An unfitted GP returns the prior (mean 0, variance = k(x,x)).
func (g *GP) Predict(x []float64) (mean, variance float64) {
	means, variances := g.PredictAll([][]float64{x})
	return means[0], variances[0]
}

// predictBlock is how many candidates one PredictAll work unit scores:
// blocks are fanned across the worker pool, and each block owns one
// scratch buffer for its statistics, kernel rows and triangular solves.
const predictBlock = 16

// PredictAll computes the posterior mean and variance at every point in
// xs. The factor and weights are shared across all candidates, the
// kernel is called once per candidate row, and blocks run on a bounded
// worker pool.
func (g *GP) PredictAll(xs [][]float64) (means, variances []float64) {
	w := g.Kern.NumStats()
	return g.predictAll(len(xs), max(len(g.x), 1)*w, math.Inf(-1), func(j int, st, k []float64) float64 {
		g.Kern.StatsRow(g.x[:len(k)], 0, xs[j], w, st)
		g.Kern.AddOfStatsRow(st, w, k)
		g.Kern.Stats(xs[j], xs[j], st[:w])
		return g.Kern.OfStats(st[:w])
	})
}

// predictAll scores m query points. row adds query j's covariance with
// each of the len(k) conditioning points to the zeroed k, measuring into
// the scratch st of sw floats, and returns the query's prior variance;
// it is called from worker goroutines and must only read shared state.
// Every query gets its mean; the triangular solve behind a variance is
// spent only on queries whose mean reaches floor, and the rest report 0.
func (g *GP) predictAll(m, sw int, floor float64, row func(j int, st, k []float64) float64) (means, variances []float64) {
	means = make([]float64, m)
	variances = make([]float64, m)
	n := len(g.x)
	if !g.fresh {
		n = 0 // serve the prior
	}
	nb := (m + predictBlock - 1) / predictBlock
	mathx.ParallelFor(nb, func(bi int) {
		buf := make([]float64, n+sw)
		k, st := buf[:n], buf[n:]
		for j := bi * predictBlock; j < min(m, (bi+1)*predictBlock); j++ {
			clear(k)
			prior := row(j, st, k)
			if n == 0 {
				variances[j] = prior
				continue
			}
			means[j] = mathx.Dot(k, g.alpha)*g.yStd + g.yMean
			if means[j] < floor {
				continue
			}
			mathx.SolveLowerInPlace(g.chol, k)
			varStd := prior - mathx.Dot(k, k)
			if varStd < 1e-12 {
				varStd = 1e-12
			}
			variances[j] = varStd * g.yStd * g.yStd
		}
	})
	return means, variances
}

// ConfidenceBounds returns μ−βσ and μ+βσ at x in original units. β
// controls bound tightness (Srinivas et al., 2010).
func (g *GP) ConfidenceBounds(x []float64, beta float64) (lower, upper float64) {
	mu, v := g.Predict(x)
	s := beta * math.Sqrt(v)
	return mu - s, mu + s
}

// LogMarginalLikelihood returns log p(y | X, kernel, noise) for the
// standardized targets. Larger is better.
func (g *GP) LogMarginalLikelihood() float64 {
	if !g.fresh {
		return math.Inf(-1)
	}
	n := float64(len(g.y))
	return -0.5*mathx.Dot(g.y, g.alpha) -
		0.5*mathx.LogDetFromCholesky(g.chol) -
		0.5*n*math.Log(2*math.Pi)
}

// Hyperparams returns the model's hyperparameters in a flat log-space
// vector: the kernel parameters followed by log noise variance. The
// layout matches OptimizeHyperparams' search space, so a vector from one
// model can seed another with the same kernel shape.
func (g *GP) Hyperparams() []float64 {
	return append(g.Kern.Params(), math.Log(g.Noise))
}

// SetHyperparams installs a hyperparameter vector in the Hyperparams
// layout and refactorizes any existing data. Vectors of the wrong length or
// with non-finite entries are rejected, and a vector the data cannot be
// factorized under leaves the model exactly as it was.
func (g *GP) SetHyperparams(p []float64) error {
	if want := len(g.Kern.Params()) + 1; len(p) != want {
		return fmt.Errorf("gp: hyperparam length %d, want %d", len(p), want)
	}
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("gp: non-finite hyperparam %v", v)
		}
	}
	hyper, noise := g.Kern.Hyper(), g.Noise
	g.Kern.SetParams(p[:len(p)-1])
	g.Noise = math.Exp(p[len(p)-1])
	if len(g.x) > 0 {
		g.rebuild(g.distinctPairs())
		if err := g.refactor(); err != nil {
			// Roll back so a bad transfer cannot brick a fitted model.
			g.restore(hyper, noise)
			_ = g.refactor()
			return fmt.Errorf("gp: refit with transferred hyperparams: %w", err)
		}
	}
	return nil
}

// restore reinstates hyperparameters as Kern.Hyper and Noise held them,
// bit for bit, and the value triangle with them.
func (g *GP) restore(hyper []float64, noise float64) {
	g.Kern.SetHyper(hyper)
	g.Noise = noise
	g.rebuild(g.distinctPairs())
}

// Refit is what one OptimizeHyperparams installed: the kernel's
// hyperparameters as Kern.Hyper holds them and the noise variance, bit
// for bit. InstallRefit reproduces the optimized model from it without
// the search.
type Refit struct {
	Hyper []float64 `json:"hyper"`
	Noise float64   `json:"noise"`
}

// InstallRefit installs the hyperparameters a refit logged and
// refactorizes as OptimizeHyperparams did on installing them: one value
// triangle rebuild and one factorization, so the model is bit-identical
// to the one the search left. A refit that does not fit the kernel is
// refused and changes nothing; a factorization failure leaves the model
// unfactorized, as the search's final factorization would have.
func (g *GP) InstallRefit(r Refit) error {
	if len(r.Hyper) != len(g.Kern.Hyper()) {
		return fmt.Errorf("gp: refit of %d hyperparameters, want %d", len(r.Hyper), len(g.Kern.Hyper()))
	}
	g.restore(r.Hyper, r.Noise)
	return g.refactor()
}

// OptimizeHyperparams maximizes the log marginal likelihood over the
// kernel's log-space hyperparameters and the log noise variance using
// Nelder–Mead. maxEvals bounds the number of likelihood evaluations. It
// returns what it installed, nil when it changed nothing: a rollback
// after a failed factorization still refactorized, so it is returned.
func (g *GP) OptimizeHyperparams(maxEvals int) *Refit {
	if len(g.x) < 3 {
		return nil // too few points: keep priors
	}
	hyper, noise := g.Kern.Hyper(), g.Noise
	base := append(g.Kern.Params(), math.Log(g.Noise))
	// One trial model serves every evaluation: it shares the training set
	// and its pair statistics read-only (a likelihood evaluation never
	// reads a coordinate), and keeps one kernel clone, one value triangle,
	// one factor and one weight vector, rebuilt in place on one pair of
	// scratch matrices. A contextual trial is split as the model is, with
	// the model's index and the distinct pairs' statistics gathered once,
	// when evaluating the Matérn kernel once per distinct pair saves more
	// than copying each value to its row pairs costs: when the distinct
	// pairs are fewer than 4 in 5 of the row pairs. Otherwise the clone is
	// resident whole. (BenchmarkOptimizeHyperparams on 80 rows: the split
	// trial is about 20 % faster at 56 distinct configurations, about even
	// at 64 to 72 and 8–14 % slower at 80.)
	gram, l := getGram(len(g.x)), getGram(len(g.x))
	defer gramPool.Put(gram)
	defer gramPool.Put(l)
	kern := g.Kern.Clone()
	trial := &GP{Kern: kern, res: kern, x: g.x, y: g.y, stats: g.stats}
	d := g.distinctPairs()
	if g.ix != nil && 5*tri(len(g.ix.reps)) < 4*tri(len(g.x)) {
		s := kern.(*Split)
		trial.res, trial.rest, trial.ix = s.KConfig, s.KCtx, g.ix
	}
	obj := func(p []float64) float64 {
		trial.Kern.SetParams(p[:len(p)-1])
		trial.Noise = math.Exp(p[len(p)-1])
		trial.rebuild(d)
		if err := trial.factorize(gram, l); err != nil {
			return math.Inf(1)
		}
		ll := trial.LogMarginalLikelihood()
		if math.IsNaN(ll) {
			return math.Inf(1)
		}
		return -ll
	}
	lo := make([]float64, len(base))
	hi := make([]float64, len(base))
	for i := range base {
		lo[i] = base[i] - 4 // bound search to e^±4 around the prior
		hi[i] = base[i] + 4
	}
	best, bestVal := mathx.NelderMead(obj, base, &mathx.NelderMeadOptions{
		MaxIter: maxEvals, InitStep: 0.5, LowerClip: lo, UpperClip: hi,
	})
	if math.IsInf(bestVal, 1) {
		return nil
	}
	g.Kern.SetParams(best[:len(best)-1])
	g.Noise = math.Exp(best[len(best)-1])
	g.rebuild(d)
	if err := g.factorize(gram, l); err != nil {
		// Roll back to the previous hyperparameters on numerical failure.
		g.restore(hyper, noise)
		_ = g.factorize(gram, l)
		return &Refit{Hyper: hyper, Noise: noise}
	}
	return &Refit{Hyper: g.Kern.Hyper(), Noise: g.Noise}
}
