package gp

import (
	"math"

	"repro/internal/mathx"
)

// ContextualGP models f(θ, c) over the joint configuration-context space
// with the additive kernel kΘ(θ,θ') + kC(c,c') from the paper (§5.2).
// Configurations and contexts are concatenated into a single input
// vector; the Split kernel handles the decomposition. Queries share one
// context, so its statistics against the training contexts are measured
// once per call, not once per candidate.
type ContextualGP struct {
	gp        *GP
	kern      *Split // gp.Kern
	configDim int
	ctxDim    int
}

// NewContextual builds a contextual GP for configDim configuration
// coordinates and ctxDim context coordinates. The configuration kernel is
// Matérn-5/2 and the context kernel is linear, matching the paper.
func NewContextual(configDim, ctxDim int) *ContextualGP {
	return NewContextualWeighted(configDim, ctxDim, nil)
}

// NewContextualWeighted is NewContextual with per-dimension distance
// weights for the configuration kernel (see Matern52.Weights).
func NewContextualWeighted(configDim, ctxDim int, weights []float64) *ContextualGP {
	mk := NewMatern52(1.0, 0.3)
	mk.Weights = weights
	return newContextual(NewSplit(configDim, mk, NewLinear(0.2, 1.0)), ctxDim)
}

func newContextual(kern *Split, ctxDim int) *ContextualGP {
	return &ContextualGP{gp: New(kern, 1e-3), kern: kern, configDim: kern.Dim, ctxDim: ctxDim}
}

// ctxStats measures ctx against every training context: Len() groups
// of KCtx.NumStats() floats, Len() Stats calls.
func (c *ContextualGP) ctxStats(ctx []float64) []float64 {
	w := c.kern.KCtx.NumStats()
	out := make([]float64, len(c.gp.x)*w)
	for i, x := range c.gp.x {
		c.kern.KCtx.Stats(x[c.configDim:], ctx, out[i*w:(i+1)*w])
	}
	return out
}

// BestByPosterior returns the evaluated configuration with the highest
// posterior mean under ctx — the paper's "best configuration estimated
// so far", robust to measurement noise (unlike the max of raw samples).
// The distances between training configurations are already cached, so
// scoring measures only ctx against each training context; the
// configuration kernel is evaluated once per cached pair and the context
// kernel once per row, then summed as Split.OfStats sums them. Means
// only: no triangular solves.
func (c *ContextualGP) BestByPosterior(ctx []float64) (config []float64, mean float64, ok bool) {
	g := c.gp
	n := g.Len()
	if n == 0 {
		return nil, 0, false
	}
	bestIdx, bestMu := 0, 0.0 // an unfactorized model serves the prior mean
	if g.fresh {
		nc, w, wx := c.kern.KConfig.NumStats(), c.kern.NumStats(), c.kern.KCtx.NumStats()
		kCfg := make([]float64, tri(n))
		for q := range kCfg {
			kCfg[q] = c.kern.KConfig.OfStats(g.stats[q*w : q*w+nc])
		}
		cs := c.ctxStats(ctx)
		kCtx := make([]float64, n)
		for i := range kCtx {
			kCtx[i] = c.kern.KCtx.OfStats(cs[i*wx : (i+1)*wx])
		}
		kstar := make([]float64, n)
		bestMu = math.Inf(-1)
		for p := 0; p < n; p++ {
			for i := range kstar {
				v := kCfg[tri(max(i, p))+min(i, p)]
				v += kCtx[i]
				kstar[i] = v
			}
			if mu := mathx.Dot(kstar, g.alpha)*g.yStd + g.yMean; mu > bestMu {
				bestIdx, bestMu = p, mu
			}
		}
	}
	return mathx.VecClone(g.x[bestIdx][:c.configDim]), bestMu, true
}

// ConfigDim returns the configuration dimensionality.
func (c *ContextualGP) ConfigDim() int { return c.configDim }

// CtxDim returns the context dimensionality.
func (c *ContextualGP) CtxDim() int { return c.ctxDim }

// Len returns the number of conditioning observations.
func (c *ContextualGP) Len() int { return c.gp.Len() }

// Joint concatenates a configuration and a context into one input vector.
func Joint(config, ctx []float64) []float64 {
	out := make([]float64, 0, len(config)+len(ctx))
	out = append(out, config...)
	return append(out, ctx...)
}

// Fit conditions the model on aligned configurations, contexts and
// observed performances.
func (c *ContextualGP) Fit(configs, ctxs [][]float64, perf []float64) error {
	joint := make([][]float64, len(configs))
	for i := range configs {
		joint[i] = Joint(configs[i], ctxs[i])
	}
	return c.gp.Fit(joint, perf)
}

// Append adds one (config, ctx, perf) observation and refits.
func (c *ContextualGP) Append(config, ctx []float64, perf float64) error {
	return c.gp.Append(Joint(config, ctx), perf)
}

// Slide drops the oldest observation and adds (config, ctx, perf).
func (c *ContextualGP) Slide(config, ctx []float64, perf float64) error {
	return c.gp.Slide(Joint(config, ctx), perf)
}

// NearestContextDist returns the Euclidean distance from ctx to the
// closest training context, +Inf for an empty model.
func (c *ContextualGP) NearestContextDist(ctx []float64) float64 {
	nearest := math.Inf(1)
	for _, x := range c.gp.x {
		if d := mathx.Dist2(x[c.configDim:], ctx); d < nearest {
			nearest = d
		}
	}
	return nearest
}

// Predict returns the posterior mean and variance of performance for a
// configuration under a context.
func (c *ContextualGP) Predict(config, ctx []float64) (mean, variance float64) {
	return c.gp.Predict(Joint(config, ctx))
}

// PredictAll returns posterior means and variances for every
// configuration under a shared context in one batched pass: the factor,
// the weights and the context-kernel statistics are shared, per-candidate
// solves reuse scratch buffers, and candidate blocks are fanned across a
// bounded worker pool.
func (c *ContextualGP) PredictAll(configs [][]float64, ctx []float64) (means, variances []float64) {
	xs, d := c.gp.x, c.configDim
	kc, nc := c.kern.KConfig, c.kern.KConfig.NumStats()
	w := c.kern.KCtx.NumStats()
	rows := c.ctxStats(ctx)
	self := make([]float64, w)
	c.kern.KCtx.Stats(ctx, ctx, self)
	return c.gp.predictAll(len(configs),
		func(j, i int, out []float64) {
			kc.Stats(xs[i][:d], configs[j][:d], out[:nc])
			copy(out[nc:], rows[i*w:])
		},
		func(j int, out []float64) {
			kc.Stats(configs[j][:d], configs[j][:d], out[:nc])
			copy(out[nc:], self)
		})
}

// Bounds returns the β-confidence interval [μ−βσ, μ+βσ] at (config, ctx).
func (c *ContextualGP) Bounds(config, ctx []float64, beta float64) (lower, upper float64) {
	return c.gp.ConfidenceBounds(Joint(config, ctx), beta)
}

// Sigma returns the posterior standard deviation at (config, ctx).
func (c *ContextualGP) Sigma(config, ctx []float64) float64 {
	_, v := c.Predict(config, ctx)
	return math.Sqrt(v)
}

// OptimizeHyperparams delegates to the underlying GP.
func (c *ContextualGP) OptimizeHyperparams(maxEvals int) { c.gp.OptimizeHyperparams(maxEvals) }

// Hyperparams delegates to the underlying GP.
func (c *ContextualGP) Hyperparams() []float64 { return c.gp.Hyperparams() }

// SetHyperparams delegates to the underlying GP.
func (c *ContextualGP) SetHyperparams(p []float64) error { return c.gp.SetHyperparams(p) }

// LogMarginalLikelihood delegates to the underlying GP.
func (c *ContextualGP) LogMarginalLikelihood() float64 { return c.gp.LogMarginalLikelihood() }

// Observations returns copies of the training configurations, contexts
// and raw targets.
func (c *ContextualGP) Observations() (configs, ctxs [][]float64, perf []float64) {
	xs := c.gp.x
	perf = mathx.VecClone(c.gp.yRaw)
	configs = make([][]float64, len(xs))
	ctxs = make([][]float64, len(xs))
	for i, x := range xs {
		configs[i] = mathx.VecClone(x[:c.configDim])
		ctxs[i] = mathx.VecClone(x[c.configDim:])
	}
	return configs, ctxs, perf
}
