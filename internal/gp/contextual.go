package gp

import (
	"math"

	"repro/internal/mathx"
)

// ContextualGP models f(θ, c) over the joint configuration-context space
// with the additive kernel kΘ(θ,θ') + kC(c,c') from the paper (§5.2).
// Configurations and contexts are concatenated into a single input
// vector; the Split kernel handles the decomposition.
type ContextualGP struct {
	gp        *GP
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
	kern := NewSplit(configDim, mk, NewLinear(0.2, 1.0))
	return &ContextualGP{gp: New(kern, 1e-3), configDim: configDim, ctxDim: ctxDim}
}

// BestByPosterior returns the evaluated configuration with the highest
// posterior mean under ctx — the paper's "best configuration estimated
// so far", robust to measurement noise (unlike the max of raw samples).
// All training configurations are scored in one batched posterior pass.
func (c *ContextualGP) BestByPosterior(ctx []float64) (config []float64, mean float64, ok bool) {
	xs := c.gp.TrainX()
	if len(xs) == 0 {
		return nil, 0, false
	}
	pts := make([][]float64, len(xs))
	for i, x := range xs {
		pts[i] = Joint(x[:c.configDim], ctx)
	}
	mus, _ := c.gp.PredictAll(pts)
	bestIdx, bestMu := -1, math.Inf(-1)
	for i, mu := range mus {
		if mu > bestMu {
			bestIdx, bestMu = i, mu
		}
	}
	cfg := make([]float64, c.configDim)
	copy(cfg, xs[bestIdx][:c.configDim])
	return cfg, bestMu, true
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

// Predict returns the posterior mean and variance of performance for a
// configuration under a context.
func (c *ContextualGP) Predict(config, ctx []float64) (mean, variance float64) {
	return c.gp.Predict(Joint(config, ctx))
}

// PredictAll returns posterior means and variances for every
// configuration under a shared context in one batched pass: the factor
// and weights are shared, per-candidate solves reuse scratch buffers,
// and candidate blocks are fanned across a bounded worker pool.
func (c *ContextualGP) PredictAll(configs [][]float64, ctx []float64) (means, variances []float64) {
	pts := make([][]float64, len(configs))
	for i, cfg := range configs {
		pts[i] = Joint(cfg, ctx)
	}
	return c.gp.PredictAll(pts)
}

// Bounds returns the β-confidence interval [μ−βσ, μ+βσ] at (config, ctx).
func (c *ContextualGP) Bounds(config, ctx []float64, beta float64) (lower, upper float64) {
	return c.gp.ConfidenceBounds(Joint(config, ctx), beta)
}

// UCB returns μ + βσ at (config, ctx): the acquisition value of Eq. 4.
func (c *ContextualGP) UCB(config, ctx []float64, beta float64) float64 {
	mu, v := c.Predict(config, ctx)
	return mu + beta*math.Sqrt(v)
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

// BestObserved returns the training observation with the highest target
// whose context is within ctxRadius (Euclidean) of ctx. If none is that
// close, it falls back to the global best. ok is false when the model has
// no observations at all.
func (c *ContextualGP) BestObserved(ctx []float64, ctxRadius float64) (config []float64, perf float64, ok bool) {
	xs := c.gp.TrainX()
	if len(xs) == 0 {
		return nil, 0, false
	}
	ys := c.gp.TrainYRaw()
	bestIdx, bestPerf := -1, math.Inf(-1)
	globalIdx, globalPerf := -1, math.Inf(-1)
	for i, x := range xs {
		if ys[i] > globalPerf {
			globalIdx, globalPerf = i, ys[i]
		}
		if len(x) >= c.configDim && mathx.Dist2(x[c.configDim:], ctx) <= ctxRadius && ys[i] > bestPerf {
			bestIdx, bestPerf = i, ys[i]
		}
	}
	if bestIdx < 0 {
		bestIdx, bestPerf = globalIdx, globalPerf
	}
	cfg := make([]float64, c.configDim)
	copy(cfg, xs[bestIdx][:c.configDim])
	return cfg, bestPerf, true
}

// Observations returns copies of the training configurations, contexts
// and raw targets.
func (c *ContextualGP) Observations() (configs, ctxs [][]float64, perf []float64) {
	xs := c.gp.TrainX()
	perf = mathx.VecClone(c.gp.TrainYRaw())
	configs = make([][]float64, len(xs))
	ctxs = make([][]float64, len(xs))
	for i, x := range xs {
		configs[i] = mathx.VecClone(x[:c.configDim])
		ctxs[i] = mathx.VecClone(x[c.configDim:])
	}
	return configs, ctxs, perf
}
