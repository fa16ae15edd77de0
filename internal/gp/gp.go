package gp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
)

// refactorEvery bounds how many incremental Cholesky extensions are
// applied before a full refactorization, for numerical hygiene: the
// extension is backward-stable per step but errors compound, so the
// factor is rebuilt from the cached Gram matrix every so often.
const refactorEvery = 64

// GP is an exact Gaussian-process regressor. Targets are standardized
// internally; predictions are returned in the original units.
//
// Conditioning is incremental: the kernel Gram matrix and its Cholesky
// factor are cached, so Append extends them in O(n²) instead of the
// O(n³) full refit (with a periodic full refactorization, and a full
// refit whenever the kernel hyperparameters change).
type GP struct {
	Kern  Kernel
	Noise float64 // observation noise variance (in standardized units)

	x     [][]float64
	yRaw  []float64 // targets in original units
	y     []float64 // standardized targets
	yMean float64
	yStd  float64

	gram    *mathx.Matrix // K + Noise·I for the current kernel
	jitter  float64       // diagonal jitter baked into chol
	chol    *mathx.Matrix
	alpha   []float64
	fresh   bool
	appends int // incremental extensions since the last full factorization
}

// New returns an unfitted GP with the given kernel and noise variance.
func New(k Kernel, noise float64) *GP {
	return &GP{Kern: k, Noise: noise}
}

// Len returns the number of training observations.
func (g *GP) Len() int { return len(g.x) }

// TrainX returns the training inputs (not copied; treat as read-only).
func (g *GP) TrainX() [][]float64 { return g.x }

// TrainYRaw returns the training targets in original units (not copied;
// treat as read-only).
func (g *GP) TrainYRaw() []float64 { return g.yRaw }

// Fit conditions the GP on inputs X and targets y.
func (g *GP) Fit(x [][]float64, y []float64) error {
	if len(x) != len(y) {
		return errors.New("gp: X/y length mismatch")
	}
	if len(x) == 0 {
		return errors.New("gp: empty training set")
	}
	g.x = x
	g.yRaw = mathx.VecClone(y)
	g.standardize()
	return g.refit()
}

// Append adds one observation. When a cached factor is available it is
// extended in O(n²) (kernel row + rank-1 Cholesky extension + triangular
// solves); otherwise — and periodically, for numerical hygiene — it
// falls back to a full refactorization.
func (g *GP) Append(x []float64, y float64) error {
	if len(g.x) == 0 {
		return g.Fit([][]float64{x}, []float64{y})
	}
	g.x = append(g.x, x)
	g.yRaw = append(g.yRaw, y)
	g.standardize()
	n := len(g.x)
	// Extend the cached Gram matrix with the new kernel row.
	row := make([]float64, n)
	for i := 0; i < n-1; i++ {
		row[i] = g.Kern.Eval(g.x[i], x)
	}
	row[n-1] = g.Kern.Eval(x, x) + g.Noise
	if g.gram == nil || g.gram.Rows != n-1 {
		return g.refit()
	}
	g.gram = extendSym(g.gram, row)
	// !fresh covers a previously failed factorization: g.chol would be a
	// stale factor of older training data, so extending it would silently
	// produce an inconsistent posterior — refactor the (correct) Gram
	// matrix instead.
	if g.chol == nil || !g.fresh || g.appends >= refactorEvery {
		return g.refactor()
	}
	l, err := mathx.CholeskyExtend(g.chol, row[:n-1], row[n-1]+g.jitter)
	if err != nil {
		// Extension lost positive-definiteness: fall back to a fresh
		// (jittered) factorization of the cached Gram matrix.
		return g.refactor()
	}
	g.chol = l
	g.appends++
	g.alpha = mathx.CholeskySolve(l, g.y)
	g.fresh = true
	return nil
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

// extendSym returns the (n+1)×(n+1) symmetric matrix formed by bordering
// a with row (row[n] is the new diagonal entry).
func extendSym(a *mathx.Matrix, row []float64) *mathx.Matrix {
	n := a.Rows
	out := mathx.NewMatrix(n+1, n+1)
	for i := 0; i < n; i++ {
		copy(out.Data[i*(n+1):i*(n+1)+n], a.Data[i*n:(i+1)*n])
		out.Set(i, n, row[i])
	}
	copy(out.Data[n*(n+1):(n+1)*(n+1)], row)
	return out
}

// refit rebuilds the Gram matrix from the kernel and refactorizes. Called
// on Fit and whenever kernel hyperparameters change.
func (g *GP) refit() error {
	n := len(g.x)
	k := mathx.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := g.Kern.Eval(g.x[i], g.x[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	k.AddDiag(g.Noise)
	g.gram = k
	return g.refactor()
}

// refactor recomputes the Cholesky factor and weights from the cached
// Gram matrix.
func (g *GP) refactor() error {
	l, jit, err := mathx.CholeskyJitter(g.gram, 1e-3)
	if err != nil {
		g.fresh = false
		return err
	}
	g.chol = l
	g.jitter = jit
	g.appends = 0
	g.alpha = mathx.CholeskySolve(l, g.y)
	g.fresh = true
	return nil
}

// Predict returns the posterior mean and variance at x, in original units.
// An unfitted GP returns the prior (mean 0, variance = k(x,x)+noise).
func (g *GP) Predict(x []float64) (mean, variance float64) {
	prior := g.Kern.Eval(x, x)
	if !g.fresh || len(g.x) == 0 {
		return 0, prior
	}
	n := len(g.x)
	kstar := make([]float64, n)
	for i := 0; i < n; i++ {
		kstar[i] = g.Kern.Eval(g.x[i], x)
	}
	mu := mathx.Dot(kstar, g.alpha)
	v := mathx.SolveLower(g.chol, kstar)
	varStd := prior - mathx.Dot(v, v)
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return mu*g.yStd + g.yMean, varStd * g.yStd * g.yStd
}

// predictBlock is how many candidates one PredictAll work unit scores:
// blocks are fanned across the worker pool, and each worker reuses a
// single scratch buffer for its kernel rows and triangular solves.
const predictBlock = 16

// PredictAll computes the posterior mean and variance at every point in
// xs. The factor and weights are shared across all candidates, the
// per-candidate kernel row and triangular solve reuse one scratch
// buffer per block (no per-candidate allocation, unlike repeated
// Predict calls), and blocks run on a bounded worker pool. Results are
// identical to calling Predict per point.
func (g *GP) PredictAll(xs [][]float64) (means, variances []float64) {
	m := len(xs)
	means = make([]float64, m)
	variances = make([]float64, m)
	if !g.fresh || len(g.x) == 0 {
		for j, x := range xs {
			variances[j] = g.Kern.Eval(x, x)
		}
		return means, variances
	}
	n := len(g.x)
	nb := (m + predictBlock - 1) / predictBlock
	mathx.ParallelFor(nb, func(bi int) {
		j0 := bi * predictBlock
		j1 := j0 + predictBlock
		if j1 > m {
			j1 = m
		}
		buf := make([]float64, n)
		for j := j0; j < j1; j++ {
			x := xs[j]
			for i := 0; i < n; i++ {
				buf[i] = g.Kern.Eval(g.x[i], x)
			}
			mu := mathx.Dot(buf, g.alpha)
			mathx.SolveLowerInPlace(g.chol, buf)
			varStd := g.Kern.Eval(x, x) - mathx.Dot(buf, buf)
			if varStd < 1e-12 {
				varStd = 1e-12
			}
			means[j] = mu*g.yStd + g.yMean
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
// layout and refits any existing data. Vectors of the wrong length or
// with non-finite entries are rejected.
func (g *GP) SetHyperparams(p []float64) error {
	cur := g.Hyperparams()
	if len(p) != len(cur) {
		return fmt.Errorf("gp: hyperparam length %d, want %d", len(p), len(cur))
	}
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("gp: non-finite hyperparam %v", v)
		}
	}
	g.Kern.SetParams(p[:len(p)-1])
	g.Noise = math.Exp(p[len(p)-1])
	if len(g.x) > 0 {
		if err := g.refit(); err != nil {
			// Roll back so a bad transfer cannot brick a fitted model.
			g.Kern.SetParams(cur[:len(cur)-1])
			g.Noise = math.Exp(cur[len(cur)-1])
			_ = g.refit()
			return fmt.Errorf("gp: refit with transferred hyperparams: %w", err)
		}
	}
	return nil
}

// OptimizeHyperparams maximizes the log marginal likelihood over the
// kernel's log-space hyperparameters and the log noise variance using
// Nelder–Mead. maxEvals bounds the number of likelihood evaluations.
func (g *GP) OptimizeHyperparams(maxEvals int) {
	if len(g.x) < 3 {
		return // too few points: keep priors
	}
	base := append(g.Kern.Params(), math.Log(g.Noise))
	obj := func(p []float64) float64 {
		kern := g.Kern.Clone()
		kern.SetParams(p[:len(p)-1])
		trial := &GP{Kern: kern, Noise: math.Exp(p[len(p)-1]), x: g.x, y: g.y}
		if err := trial.refit(); err != nil {
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
		return
	}
	g.Kern.SetParams(best[:len(best)-1])
	g.Noise = math.Exp(best[len(best)-1])
	if err := g.refit(); err != nil {
		// Roll back to the previous hyperparameters on numerical failure.
		g.Kern.SetParams(base[:len(base)-1])
		g.Noise = math.Exp(base[len(base)-1])
		_ = g.refit()
	}
}
