package gp

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// ContextualGP models f(θ, c) over the joint configuration-context space
// with the additive kernel kΘ(θ,θ') + kC(c,c') from the paper (§5.2).
// Configurations and contexts are concatenated into a single input
// vector; the Split kernel handles the decomposition. Queries share one
// context, so its statistics against the training contexts are measured
// once per call, not once per candidate, and a query's configuration is
// measured against each distinct training configuration once.
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
	g := New(kern, 1e-3)
	g.ix = &configIndex{dim: kern.Dim}
	g.res, g.rest = kern.KConfig, kern.KCtx
	return &ContextualGP{gp: g, kern: kern, configDim: kern.Dim, ctxDim: ctxDim}
}

// ctxRow is the context kernel of ctx against every training context,
// one value per training point: Len() pairs measured, in two row calls.
func (c *ContextualGP) ctxRow(ctx []float64) []float64 {
	n, w := len(c.gp.x), c.kern.KCtx.NumStats()
	buf := make([]float64, n*w+n)
	st, k := buf[:n*w], buf[n*w:]
	c.kern.KCtx.StatsRow(c.gp.x, c.configDim, ctx, w, st)
	c.kern.KCtx.AddOfStatsRow(st, w, k)
	return k
}

// BestByPosterior returns the index of the evaluated configuration with
// the highest posterior mean under ctx (see Config) — the paper's "best
// configuration estimated so far", robust to measurement noise (unlike
// the max of raw samples).
// The configuration kernel's value for every training pair is resident,
// so scoring evaluates only the context kernel, once per training
// context, and sums the two as Split.OfStats sums them. Means only: no
// triangular solves. Rows that repeat a configuration share its mean,
// so each distinct configuration is scored once, at its first row,
// which the strict > would have kept on the tie anyway.
func (c *ContextualGP) BestByPosterior(ctx []float64) (idx int, mean float64, ok bool) {
	g := c.gp
	n := g.Len()
	if n == 0 {
		return 0, 0, false
	}
	bestIdx, bestMu := 0, 0.0 // an unfactorized model serves the prior mean
	if g.fresh {
		kstar := make([]float64, n)
		kCtx := c.ctxRow(ctx)
		bestMu = math.Inf(-1)
		for _, p := range g.ix.reps {
			for i := range kstar {
				v := g.kres[tri(max(i, p))+min(i, p)]
				v += kCtx[i]
				kstar[i] = v
			}
			if mu := mathx.Dot(kstar, g.alpha)*g.yStd + g.yMean; mu > bestMu {
				bestIdx, bestMu = p, mu
			}
		}
	}
	return bestIdx, bestMu, true
}

// Config returns a copy of training observation i's configuration.
func (c *ContextualGP) Config(i int) []float64 {
	return mathx.VecClone(c.gp.x[i][:c.configDim])
}

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
	joint, err := c.joint(configs, ctxs)
	if err != nil {
		return err
	}
	return c.gp.Fit(joint, perf)
}

// joint pairs configurations with contexts into input vectors, rejecting
// a pair of the wrong dimensions.
func (c *ContextualGP) joint(configs, ctxs [][]float64) ([][]float64, error) {
	if len(ctxs) != len(configs) {
		return nil, fmt.Errorf("gp: %d contexts for %d configurations", len(ctxs), len(configs))
	}
	joint := make([][]float64, len(configs))
	for i := range configs {
		if len(configs[i]) != c.configDim || len(ctxs[i]) != c.ctxDim {
			return nil, fmt.Errorf("gp: observation %d has %d configuration and %d context coordinates, want %d and %d",
				i, len(configs[i]), len(ctxs[i]), c.configDim, c.ctxDim)
		}
		joint[i] = Joint(configs[i], ctxs[i])
	}
	return joint, nil
}

// State returns copies of the training configurations, contexts and raw
// targets, and the GP's state: what SetState needs to reproduce the
// model.
func (c *ContextualGP) State() (configs, ctxs [][]float64, perf []float64, st State) {
	configs, ctxs, perf = c.Observations()
	return configs, ctxs, perf, c.gp.State()
}

// SetState makes an unfitted model the one that exported its State.
func (c *ContextualGP) SetState(configs, ctxs [][]float64, perf []float64, st State) error {
	joint, err := c.joint(configs, ctxs)
	if err != nil {
		return err
	}
	return c.gp.SetState(joint, perf, st)
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
// the weights and the context-kernel row are shared, the configuration
// kernel is called once per candidate row, over the distinct training
// configurations, on per-block scratch, and candidate blocks are fanned
// across a bounded worker pool.
func (c *ContextualGP) PredictAll(configs [][]float64, ctx []float64) (means, variances []float64) {
	return c.PredictAbove(configs, ctx, math.Inf(-1))
}

// PredictAbove is PredictAll with the triangular solve behind a variance
// spent only on configurations whose mean is at least floor; the others
// report variance 0.
func (c *ContextualGP) PredictAbove(configs [][]float64, ctx []float64, floor float64) (means, variances []float64) {
	d, kc, w := c.configDim, c.kern.KConfig, c.kern.KConfig.NumStats()
	kCtx, ctxPrior := c.ctxRow(ctx), Eval(c.kern.KCtx, ctx, ctx)
	ix, x := c.gp.ix, c.gp.x
	rows := make([][]float64, len(ix.reps)) // the distinct configurations
	for a, p := range ix.reps {
		rows[a] = x[p]
	}
	// Value a of k holds configuration a's until it is copied to the rows
	// that share it, from the last row down: of is at most the row, so
	// each value is read before it is overwritten.
	return c.gp.predictAll(len(configs), max(len(rows), 1)*w, floor, func(j int, st, k []float64) float64 {
		q := configs[j][:d]
		if len(k) > 0 {
			kc.StatsRow(rows, 0, q, w, st)
			kc.AddOfStatsRow(st, w, k[:len(rows)])
			for i := len(k) - 1; i >= 0; i-- {
				k[i] = k[ix.of[i]] + kCtx[i]
			}
		}
		kc.Stats(q, q, st[:w])
		return kc.OfStats(st[:w]) + ctxPrior
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
func (c *ContextualGP) OptimizeHyperparams(maxEvals int) *Refit {
	return c.gp.OptimizeHyperparams(maxEvals)
}

// InstallRefit delegates to the underlying GP.
func (c *ContextualGP) InstallRefit(r Refit) error { return c.gp.InstallRefit(r) }

// Hyperparams delegates to the underlying GP.
func (c *ContextualGP) Hyperparams() []float64 { return c.gp.Hyperparams() }

// SetHyperparams delegates to the underlying GP.
func (c *ContextualGP) SetHyperparams(p []float64) error { return c.gp.SetHyperparams(p) }

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
