// Package gp implements Gaussian-process regression from scratch:
// covariance kernels (Matérn-5/2, linear, additive/split), exact
// inference via Cholesky factorization, log-marginal-likelihood
// hyperparameter fitting with Nelder–Mead, and the contextual GP used by
// OnlineTune, which joins a Matérn kernel over configurations with a
// linear kernel over context features (Krause & Ong, 2011). The
// contextual GP evaluates its Matérn kernel once per distinct
// configuration, or distinct pair of them, not once per training row or
// pair: its windows repeat few configurations under many contexts.
package gp

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Kernel is a positive-semidefinite covariance function over float
// vectors, factored as k(a,b) = f_θ(s(a,b)): Stats measures the pair
// once, free of hyperparameters, and OfStats maps the measurement to the
// covariance under the current hyperparameters. A GP caches the
// statistics of its training pairs, so changing θ never touches
// coordinates again. Stats and OfStats define the kernel; the GP's
// loops call the row forms, which compute the same values bit for bit
// with one dynamic call per row instead of several per pair. A
// contextual GP calls its configuration kernel's row forms over its
// distinct configurations only, once per distinct configuration, and
// shares each value with the rows that repeat it.
// Hyperparameters are exposed in log space so optimizers can search
// unconstrained.
type Kernel interface {
	// NumStats is how many floats Stats writes per pair.
	NumStats() int
	// Stats writes the pair statistics of (a, b) to out[:NumStats()].
	// It is bitwise symmetric in a and b.
	Stats(a, b, out []float64)
	// OfStats returns k(a, b) given Stats(a, b).
	OfStats(s []float64) float64
	// StatsRow measures q against every row: pair i is
	// Stats(rows[i][lo:lo+len(q)], q), written at out[i*stride:]. The
	// offset and the stride let a composite kernel hand each part its
	// coordinates and its slots of a packed row; out holds at least
	// NumStats() floats even when there are no rows.
	StatsRow(rows [][]float64, lo int, q []float64, stride int, out []float64)
	// AddOfStatsRow adds k to out for the len(out) pairs packed in s:
	// out[i] += OfStats(s[i*stride : i*stride+NumStats()]). A composite
	// adds its parts one after the other, as its OfStats sums them, so
	// on a zeroed out the result is OfStats bit for bit.
	AddOfStatsRow(s []float64, stride int, out []float64)
	// Params returns the kernel hyperparameters in log space.
	Params() []float64
	// SetParams assigns hyperparameters from log space; the slice length
	// must match Params().
	SetParams(p []float64)
	// Hyper returns the hyperparameters as the kernel holds them, and
	// SetHyper assigns such a slice back bit for bit (a round trip
	// through Params' log space need not).
	Hyper() []float64
	SetHyper(h []float64)
	// Clone returns a deep copy.
	Clone() Kernel
}

// Eval returns k(a, b).
func Eval(k Kernel, a, b []float64) float64 {
	s := make([]float64, k.NumStats())
	k.Stats(a, b, s)
	return k.OfStats(s)
}

// Matern52 is the Matérn kernel with ν = 5/2:
// k(r) = σ² (1 + √5 r/ℓ + 5r²/(3ℓ²)) exp(-√5 r/ℓ).
// The paper uses a Matérn ("Martin") kernel over configurations to model
// the non-smooth performance response. Optional per-dimension weights
// rescale the distance metric (e.g. to treat a categorical knob's
// neighbor as a moderate move rather than half the unit range).
type Matern52 struct {
	Variance    float64
	Lengthscale float64
	// Weights, when non-nil, scales each coordinate difference:
	// r² = Σ (w_i (a_i − b_i))². Not exposed to the hyperparameter
	// optimizer (structural, not fitted).
	Weights []float64
}

// NewMatern52 returns a Matérn-5/2 kernel.
func NewMatern52(variance, lengthscale float64) *Matern52 {
	return &Matern52{Variance: variance, Lengthscale: lengthscale}
}

// dist is the weighted Euclidean distance. Coordinates beyond
// len(Weights) carry weight 1.
func (k *Matern52) dist(a, b []float64) float64 {
	if k.Weights == nil {
		return mathx.Dist2(a, b)
	}
	w := k.Weights
	if len(w) > len(a) {
		w = w[:len(a)]
	}
	s := 0.0
	for i, wi := range w {
		d := wi * (a[i] - b[i])
		s += d * d
	}
	for i := len(w); i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func (k *Matern52) NumStats() int { return 1 }

// Stats is the (weighted) distance between a and b.
func (k *Matern52) Stats(a, b, out []float64) { out[0] = k.dist(a, b) }

func (k *Matern52) OfStats(st []float64) float64 { return k.of(st[0]) }

// of is the kernel value at distance d.
func (k *Matern52) of(d float64) float64 {
	r := d / k.Lengthscale
	s := math.Sqrt(5) * r
	return k.Variance * (1 + s + s*s/3) * math.Exp(-s)
}

func (k *Matern52) StatsRow(rows [][]float64, lo int, q []float64, stride int, out []float64) {
	for i, x := range rows {
		out[i*stride] = k.dist(span(x, lo, len(q)), q)
	}
}

func (k *Matern52) AddOfStatsRow(s []float64, stride int, out []float64) {
	for i := range out {
		// The conversion rounds the product before the sum, as a call to
		// OfStats does, on targets where the compiler may fuse the two.
		out[i] += float64(k.of(s[i*stride]))
	}
}

// span is row[lo:lo+n]. A row too short for it is a caller's bug, and
// must not read on into the slice's spare capacity.
func span(row []float64, lo, n int) []float64 {
	if len(row) < lo+n {
		panic(fmt.Sprintf("gp: kernel input of %d coordinates, want at least %d", len(row), lo+n))
	}
	return row[lo : lo+n]
}

func (k *Matern52) Params() []float64 {
	return []float64{math.Log(k.Variance), math.Log(k.Lengthscale)}
}

func (k *Matern52) SetParams(p []float64) {
	k.Variance = math.Exp(p[0])
	k.Lengthscale = math.Exp(p[1])
}

func (k *Matern52) Hyper() []float64 { return []float64{k.Variance, k.Lengthscale} }

func (k *Matern52) SetHyper(h []float64) { k.Variance, k.Lengthscale = h[0], h[1] }

func (k *Matern52) Clone() Kernel {
	c := *k
	if k.Weights != nil {
		c.Weights = append([]float64{}, k.Weights...)
	}
	return &c
}

// Linear is the (homogeneous-plus-bias) linear kernel
// k(a,b) = σ² (a·b + bias). The paper uses it over context features to
// model the overall performance trend across environments.
type Linear struct {
	Variance float64
	Bias     float64
}

// NewLinear returns a linear kernel.
func NewLinear(variance, bias float64) *Linear {
	return &Linear{Variance: variance, Bias: bias}
}

func (k *Linear) NumStats() int { return 1 }

// Stats is the dot product a·b.
func (k *Linear) Stats(a, b, out []float64) { out[0] = mathx.Dot(a, b) }

func (k *Linear) OfStats(s []float64) float64 {
	return k.Variance * (s[0] + k.Bias)
}

func (k *Linear) StatsRow(rows [][]float64, lo int, q []float64, stride int, out []float64) {
	for i, x := range rows {
		out[i*stride] = mathx.Dot(span(x, lo, len(q)), q)
	}
}

func (k *Linear) AddOfStatsRow(s []float64, stride int, out []float64) {
	for i := range out {
		out[i] += float64(k.Variance * (s[i*stride] + k.Bias)) // rounded first: see Matern52
	}
}

func (k *Linear) Params() []float64 {
	return []float64{math.Log(k.Variance), math.Log(k.Bias)}
}

func (k *Linear) SetParams(p []float64) {
	k.Variance = math.Exp(p[0])
	k.Bias = math.Exp(p[1])
}

func (k *Linear) Hyper() []float64 { return []float64{k.Variance, k.Bias} }

func (k *Linear) SetHyper(h []float64) { k.Variance, k.Bias = h[0], h[1] }

func (k *Linear) Clone() Kernel { c := *k; return &c }

// Split is the additive contextual kernel of the paper:
// inputs are joint vectors [θ ‖ c] with θ occupying the first Dim
// coordinates, and k(x,x') = kΘ(θ,θ') + kC(c,c'). Inputs with no
// context coordinates get kC of two empty vectors, a constant.
type Split struct {
	Dim     int // number of leading coordinates belonging to the configuration
	KConfig Kernel
	KCtx    Kernel
	nConfig int // len(KConfig.Params()), so SetParams need not build them
}

// NewSplit builds the additive configuration+context kernel. dim is the
// configuration dimensionality; coordinates ≥ dim are context.
func NewSplit(dim int, kConfig, kCtx Kernel) *Split {
	return &Split{Dim: dim, KConfig: kConfig, KCtx: kCtx, nConfig: len(kConfig.Params())}
}

func (k *Split) NumStats() int { return k.KConfig.NumStats() + k.KCtx.NumStats() }

// Stats is the configuration kernel's statistics followed by the
// context kernel's.
func (k *Split) Stats(a, b, out []float64) {
	if len(a) < k.Dim || len(b) < k.Dim {
		panic(fmt.Sprintf("gp: Split kernel input shorter than Dim=%d", k.Dim))
	}
	nc := k.KConfig.NumStats()
	k.KConfig.Stats(a[:k.Dim], b[:k.Dim], out[:nc])
	k.KCtx.Stats(a[k.Dim:], b[k.Dim:], out[nc:])
}

func (k *Split) OfStats(s []float64) float64 {
	nc := k.KConfig.NumStats()
	v := k.KConfig.OfStats(s[:nc])
	v += k.KCtx.OfStats(s[nc:])
	return v
}

func (k *Split) StatsRow(rows [][]float64, lo int, q []float64, stride int, out []float64) {
	if len(q) < k.Dim {
		panic(fmt.Sprintf("gp: Split kernel input shorter than Dim=%d", k.Dim))
	}
	k.KConfig.StatsRow(rows, lo, q[:k.Dim], stride, out)
	k.KCtx.StatsRow(rows, lo+k.Dim, q[k.Dim:], stride, out[k.KConfig.NumStats():])
}

func (k *Split) AddOfStatsRow(s []float64, stride int, out []float64) {
	k.KConfig.AddOfStatsRow(s, stride, out)
	k.KCtx.AddOfStatsRow(s[k.KConfig.NumStats():], stride, out)
}

func (k *Split) Params() []float64 {
	return append(mathx.VecClone(k.KConfig.Params()), k.KCtx.Params()...)
}

func (k *Split) SetParams(p []float64) {
	k.KConfig.SetParams(p[:k.nConfig])
	k.KCtx.SetParams(p[k.nConfig:])
}

func (k *Split) Hyper() []float64 { return append(k.KConfig.Hyper(), k.KCtx.Hyper()...) }

func (k *Split) SetHyper(h []float64) {
	k.KConfig.SetHyper(h[:k.nConfig])
	k.KCtx.SetHyper(h[k.nConfig:])
}

func (k *Split) Clone() Kernel {
	return &Split{Dim: k.Dim, KConfig: k.KConfig.Clone(), KCtx: k.KCtx.Clone(), nConfig: k.nConfig}
}
