// Package safety implements OnlineTune's safety assessment (§6.2): a
// candidate configuration is considered safe when the contextual GP's
// lower confidence bound on its performance clears the safety threshold τ
// (black-box knowledge), and the white-box rule engine does not veto it.
package safety

import "math"

// Model is the posterior the assessment queries: a batched predictor
// returning, under one context, the mean performance of every candidate
// configuration and the variance of those whose mean is at least floor
// (the rest may report 0). gp.ContextualGP implements it; tests may
// substitute degenerate models.
type Model interface {
	PredictAbove(configs [][]float64, ctx []float64, floor float64) (means, variances []float64)
}

// Assessment holds the per-candidate safety information of one round.
type Assessment struct {
	Candidates [][]float64 // unit configurations assessed
	Lower      []float64   // μ − βσ
	Upper      []float64   // μ + βσ (the UCB acquisition values)
	Sigma      []float64
	Safe       []bool
	// NumSafe counts the safe candidates.
	NumSafe int
}

// Assess computes confidence bounds for all candidates under a context
// and marks those whose lower bound clears tau. beta follows Srinivas et
// al. (2010); the paper sets it per that analysis. All candidates are
// scored in one batched posterior pass (shared factor and weights,
// candidate blocks fanned across a bounded worker pool). A variance is
// asked for only where the mean reaches tau: for beta ≥ 0 no other
// candidate can be safe (μ − βσ ≥ τ needs μ ≥ τ), and the bounds of an
// unsafe candidate are never read. Pass tau = −Inf to bound them all.
func Assess(model Model, ctx []float64, candidates [][]float64, beta, tau float64) *Assessment {
	a := &Assessment{
		Candidates: candidates,
		Lower:      make([]float64, len(candidates)),
		Upper:      make([]float64, len(candidates)),
		Sigma:      make([]float64, len(candidates)),
		Safe:       make([]bool, len(candidates)),
	}
	floor := tau
	if !(beta >= 0) {
		floor = math.Inf(-1)
	}
	mus, vars := model.PredictAbove(candidates, ctx, floor)
	for i := range candidates {
		// A near-singular posterior can report a tiny negative variance
		// (float cancellation in the Schur complement); clamp to zero
		// before the square root, or the NaN sigma would poison every
		// bound and silently empty ArgMaxUCB/ArgMaxBoundary. The clamp
		// also neutralizes NaN variances (NaN > 0 is false).
		s := 0.0
		if vars[i] > 0 {
			s = math.Sqrt(vars[i])
		}
		a.Lower[i] = mus[i] - beta*s
		a.Upper[i] = mus[i] + beta*s
		a.Sigma[i] = s
		if a.Lower[i] >= tau {
			a.Safe[i] = true
			a.NumSafe++
		}
	}
	return a
}

// ArgMaxUCB returns the index of the safe candidate with the highest
// upper confidence bound (Eq. 4), or -1 when the safe set is empty.
func (a *Assessment) ArgMaxUCB() int {
	best, bestVal := -1, math.Inf(-1)
	for i := range a.Candidates {
		if a.Safe[i] && a.Upper[i] > bestVal {
			best, bestVal = i, a.Upper[i]
		}
	}
	return best
}

// ArgMaxBoundary returns the safe candidate with the largest posterior
// uncertainty — the paper's boundary-expansion pick — or -1 when the
// safe set is empty.
func (a *Assessment) ArgMaxBoundary() int {
	best, bestVal := -1, math.Inf(-1)
	for i := range a.Candidates {
		if a.Safe[i] && a.Sigma[i] > bestVal {
			best, bestVal = i, a.Sigma[i]
		}
	}
	return best
}

// Veto removes candidate i from the safe set (white-box rejection). An
// out-of-range index is ignored: the alternative is a panic (negative or
// too-large i) that would take down a whole tuning session over one bad
// rule verdict, or — with a sparse bounds check — a silent NumSafe
// corruption that distorts every later safe-set decision.
func (a *Assessment) Veto(i int) {
	if i < 0 || i >= len(a.Safe) {
		return
	}
	if a.Safe[i] {
		a.Safe[i] = false
		a.NumSafe--
	}
}
