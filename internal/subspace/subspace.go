// Package subspace implements OnlineTune's subspace adaptation
// (Algorithm 2, §6.1): optimization is restricted to a region around the
// best configuration found so far — alternating between a hypercube
// (trust region) that expands on consecutive successes and shrinks on
// consecutive failures, and a one-dimensional line region whose direction
// comes from a random or importance-guided oracle (Appendix A3.2). All
// coordinates live in the unit hypercube encoding of the knob space.
//
// A region's candidates are a walk that makes the same generator draws
// whatever points it keeps: the tuner keeps every point in a reused
// buffer, and a replay keeps only its logged pick, or none, which keeps
// the generator in step at the cost of the draws alone.
package subspace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/mathx"
)

// Kind distinguishes region types.
type Kind int

// Region kinds.
const (
	Hypercube Kind = iota
	Line
)

// Region is the current optimization subspace.
type Region struct {
	Kind   Kind      `json:"kind"`
	Center []float64 `json:"center"`           // θbest in unit coordinates
	Radius float64   `json:"radius,omitempty"` // hypercube half-width (max-norm)
	Dir    []float64 `json:"dir,omitempty"`    // line direction (unit vector)
	// MinStep optionally gives each dimension a minimum perturbation
	// radius. Categorical knobs need it: a 3-value enum's neighbor is
	// 0.5 away in unit coordinates, unreachable inside a 5% radius.
	// An adapter's regions share its MinStep, so its state omits it.
	MinStep []float64 `json:"-"`
	// PerturbK, when positive, perturbs only that many randomly chosen
	// coordinates per candidate (the rest stay at the center) — the
	// standard trick for trust regions in high dimension.
	PerturbK int `json:"perturb_k,omitempty"`
}

// radiusAt returns the effective radius for one dimension.
func (r *Region) radiusAt(d int) float64 {
	if r.MinStep != nil && d < len(r.MinStep) && r.MinStep[d] > r.Radius {
		return r.MinStep[d]
	}
	return r.Radius
}

// containsTol is the absolute membership slack: it absorbs float error
// from the unit encoding, nothing more. Hypercube per-dimension bounds,
// the line's off-line residual and the line's projection bounds all use
// this one tolerance, so no region kind is looser than another.
const containsTol = 1e-9

// Contains reports whether a unit point lies in the region. Line
// membership requires both a near-zero off-line residual and a
// projection α inside the feasible range — the segment of the line that
// stays within [0,1]^dim — so points on the infinite line beyond the
// region's actual extent are rejected.
func (r *Region) Contains(u []float64) bool {
	switch r.Kind {
	case Hypercube:
		for i := range u {
			if math.Abs(u[i]-r.Center[i]) > r.radiusAt(i)+containsTol {
				return false
			}
		}
		return true
	default:
		d := mathx.VecSub(u, r.Center)
		alpha := mathx.Dot(d, r.Dir)
		lo, hi, ok := r.alphaRange()
		if !ok || alpha < lo-containsTol || alpha > hi+containsTol {
			return false
		}
		res := mathx.VecSub(d, mathx.VecScale(alpha, r.Dir))
		return mathx.Norm2(res) <= containsTol
	}
}

// alphaRange returns the feasible projection range of a line region:
// the α for which center + α·dir stays inside [0,1] in every
// coordinate. ok is false when the range is empty or unbounded (a zero
// direction).
func (r *Region) alphaRange() (lo, hi float64, ok bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	for i, d := range r.Dir {
		if d == 0 {
			continue
		}
		a := (0 - r.Center[i]) / d
		b := (1 - r.Center[i]) / d
		if a > b {
			a, b = b, a
		}
		if a > lo {
			lo = a
		}
		if b < hi {
			hi = b
		}
	}
	if math.IsInf(lo, -1) || math.IsInf(hi, 1) || hi < lo {
		return 0, 0, false
	}
	return lo, hi, true
}

// Candidates discretizes the region into at most n unit points, always
// including the center, in new slices: the walk that keeps every point.
func (r *Region) Candidates(n int, rng *rand.Rand) [][]float64 {
	return new(Rows).Walk(r, n, rng)
}

// Rows is a reusable buffer for walks that keep every point.
type Rows struct {
	flat []float64
	rows [][]float64
}

// Walk walks the region keeping every point in b's memory and returns
// the points, which the next Walk on b overwrites.
func (b *Rows) Walk(r *Region, n int, rng *rand.Rand) [][]float64 {
	var k int
	b.flat, k = r.Walk(n, rng, 0, math.MaxInt, b.flat[:0])
	dim := len(r.Center)
	b.rows = slices.Grow(b.rows[:0], k)
	for i := 0; i < k; i++ {
		b.rows = append(b.rows, b.flat[i*dim:(i+1)*dim:(i+1)*dim])
	}
	return b.rows
}

// Walk discretizes the region into at most n unit points, the center
// first, appends to dst the points whose index lies in [from, to), and
// returns dst and the number of points. Hypercubes are sampled
// uniformly; lines are gridded over the α range that stays inside
// [0,1]^dim. The draws are the same, in the same order, whatever the
// walk keeps: a point it drops costs its draws and nothing else, and a
// line draws nothing.
func (r *Region) Walk(n int, rng *rand.Rand, from, to int, dst []float64) ([]float64, int) {
	dim, count := len(r.Center), max(n, 1)
	var lo, hi float64
	if r.Kind != Hypercube {
		var ok bool
		if lo, hi, ok = r.alphaRange(); ok && hi > lo {
			count = 1 + max(n-1, 2)
		} else {
			count = 1
		}
	}
	from, to = max(from, 0), min(to, count)
	if to > from {
		dst = slices.Grow(dst, (to-from)*dim)
	}
	kept := func(pt int) []float64 {
		if pt < from || pt >= to {
			return nil
		}
		dst = append(dst, r.Center...)
		return dst[len(dst)-dim:]
	}
	kept(0)
	if r.Kind != Hypercube {
		for pt := max(from, 1); pt < to; pt++ {
			p := kept(pt)
			alpha := lo + (hi-lo)*float64(pt-1)/float64(count-2)
			for i, d := range r.Dir {
				// The conversion rounds the product as a store would, so
				// no platform fuses it into the add.
				p[i] = r.Center[i] + float64(alpha*d)
			}
			mathx.ClampVec(p)
		}
		return dst, count
	}
	// Partial Fisher–Yates over a scratch permutation: exactly PerturbK
	// DISTINCT dimensions are perturbed per point (independent draws
	// could collide and leave fewer moved). The permutation carries over
	// between points — any starting order yields a uniform distinct-K
	// sample.
	var scratch [64]int
	var idx []int
	if r.PerturbK > 0 && r.PerturbK < dim {
		if idx = scratch[:0]; dim > len(scratch) {
			idx = make([]int, 0, dim)
		}
		for i := 0; i < dim; i++ {
			idx = append(idx, i)
		}
	}
	for pt := 1; pt < count; pt++ {
		p := kept(pt)
		if idx != nil {
			for k := 0; k < r.PerturbK; k++ {
				j := k + rng.Intn(dim-k)
				idx[k], idx[j] = idx[j], idx[k]
				if i := idx[k]; p != nil {
					p[i] = r.Center[i] + (rng.Float64()*2-1)*r.radiusAt(i)
				} else {
					rng.Float64()
				}
			}
		} else {
			for i := 0; i < dim; i++ {
				if p != nil {
					p[i] = r.Center[i] + (rng.Float64()*2-1)*r.radiusAt(i)
				} else {
					rng.Float64()
				}
			}
		}
		mathx.ClampVec(p)
	}
	return dst, count
}

// Adapter implements the success/failure-driven adaptation of
// Algorithm 2.
type Adapter struct {
	Dim int

	// RBase/RMin/RMax bound the hypercube radius. RBase defaults to 5%
	// of each dimension's range, per the paper.
	RBase, RMin, RMax float64
	// EtaSucc/EtaFail are the consecutive success/failure thresholds.
	EtaSucc, EtaFail int
	// LineIters is how many iterations a line region lasts before
	// switching back to a hypercube.
	LineIters int
	// ImproveThreshold selects the direction oracle: if relative
	// improvement in the last hypercube phase is below it, a random
	// direction (exploration) is drawn; otherwise an important one.
	ImproveThreshold float64
	// ImportantAxes answers the important direction oracle: the most
	// important dimensions, at most five distinct ones in [0, Dim) and
	// most important first (TopAxes of per-dimension importances). No
	// answer, or a nil oracle, leaves a random direction.
	ImportantAxes func() []int
	// MinStep and PerturbK are propagated to hypercube regions (see
	// Region).
	MinStep  []float64
	PerturbK int

	st  State
	src *mathx.Source
	rng *rand.Rand
}

// State is an Adapter's mutable state: the region, the streak counters
// and its generator's seed and position.
type State struct {
	Region       *Region `json:"region,omitempty"`
	Succ         int     `json:"succ,omitempty"`
	Fail         int     `json:"fail,omitempty"`
	LineAge      int     `json:"line_age,omitempty"`
	PhaseImprove float64 `json:"phase_improve,omitempty"` // relative improvement accumulated this phase
	Seed         int64   `json:"seed"`
	Draws        int64   `json:"draws"`
}

// NewAdapter returns an adapter for a dim-dimensional unit space.
func NewAdapter(dim int, seed int64) *Adapter {
	a := &Adapter{
		Dim:              dim,
		RBase:            0.05,
		RMin:             0.01,
		RMax:             0.5,
		EtaSucc:          3,
		EtaFail:          3,
		LineIters:        8,
		ImproveThreshold: 0.01,
		st:               State{Seed: seed},
	}
	a.src = mathx.NewSource(seed, 0)
	a.rng = rand.New(a.src)
	return a
}

// State returns a copy of the adapter's state.
func (a *Adapter) State() State {
	st := a.st
	if st.Region != nil {
		r := *st.Region
		st.Region = &r
	}
	st.Draws = a.src.Draws()
	return st
}

// SetState installs an exported state. The region's shape must fit the
// adapter's space; its MinStep is the adapter's own.
func (a *Adapter) SetState(st State) error {
	if r := st.Region; r != nil {
		switch {
		case r.Kind != Hypercube && r.Kind != Line:
			return fmt.Errorf("subspace: unknown region kind %d", r.Kind)
		case len(r.Center) != a.Dim || (r.Kind == Line && len(r.Dir) != a.Dim):
			return fmt.Errorf("subspace: region of %d center and %d direction coordinates in a %d-dimensional space", len(r.Center), len(r.Dir), a.Dim)
		case r.PerturbK < 0 || r.PerturbK > a.Dim:
			return fmt.Errorf("subspace: region perturbs %d of %d coordinates", r.PerturbK, a.Dim)
		}
		r.MinStep = a.MinStep
	}
	if st.Draws < 0 {
		return fmt.Errorf("subspace: negative draw count %d", st.Draws)
	}
	a.st = st
	a.src = mathx.NewSource(st.Seed, st.Draws)
	a.rng = rand.New(a.src)
	return nil
}

// Region returns the current region (nil before the first Adapt).
func (a *Adapter) Region() *Region { return a.st.Region }

// ReportUnsafe reacts to an unsafe evaluation: the hypercube snaps back
// to the base radius and the streak counters reset, so the next
// recommendations stay near the evaluated-best configuration.
func (a *Adapter) ReportUnsafe() {
	a.st.Succ, a.st.Fail = 0, 0
	if a.st.Region != nil && a.st.Region.Kind == Hypercube && a.st.Region.Radius > a.RBase {
		a.st.Region.Radius = a.RBase
	}
}

// Report feeds back whether the last recommendation improved on the
// previous one ("success") and the relative improvement magnitude.
func (a *Adapter) Report(success bool, relImprove float64) {
	if success {
		a.st.Succ++
		a.st.Fail = 0
		if relImprove > 0 {
			a.st.PhaseImprove += relImprove
		}
	} else {
		a.st.Fail++
		a.st.Succ = 0
	}
	if a.st.Region != nil && a.st.Region.Kind == Line {
		a.st.LineAge++
	}
}

// Adapt implements Algorithm 2: it recenters on θbest, grows/shrinks the
// hypercube on success/failure streaks, and switches between hypercube
// and line regions. noUnevaluatedSafe signals that the safety set inside
// the current region is exhausted — one of the paper's switch triggers.
func (a *Adapter) Adapt(best []float64, noUnevaluatedSafe bool) *Region {
	if a.st.Region == nil {
		a.st.Region = &Region{Kind: Hypercube, Center: mathx.VecClone(best), Radius: a.RBase, MinStep: a.MinStep, PerturbK: a.PerturbK}
		return a.st.Region
	}
	a.st.Region.Center = mathx.VecClone(best)

	switch a.st.Region.Kind {
	case Hypercube:
		if a.st.Succ > a.EtaSucc {
			a.st.Region.Radius = math.Min(a.RMax, 2*a.st.Region.Radius)
			a.st.Succ, a.st.Fail = 0, 0
		}
		if a.st.Fail > a.EtaFail {
			a.st.Region.Radius = math.Max(a.RMin, a.st.Region.Radius/2)
			a.st.Fail, a.st.Succ = 0, 0
			// Persistent failure at minimum radius triggers the switch.
			if a.st.Region.Radius <= a.RMin {
				noUnevaluatedSafe = true
			}
		}
		if noUnevaluatedSafe {
			a.st.Region = &Region{Kind: Line, Center: a.st.Region.Center, Dir: a.generateDirection(), MinStep: a.MinStep}
			a.st.LineAge = 0
			a.st.PhaseImprove = 0
		}
	default: // Line
		if noUnevaluatedSafe || a.st.LineAge >= a.LineIters {
			a.st.Region = &Region{Kind: Hypercube, Center: a.st.Region.Center, Radius: a.RBase, MinStep: a.MinStep, PerturbK: a.PerturbK}
			a.st.Succ, a.st.Fail = 0, 0
			a.st.PhaseImprove = 0
		}
	}
	return a.st.Region
}

// generateDirection draws the line direction: random when the previous
// hypercube phase improved little (explore), otherwise axis-aligned with
// one of the top-5 important knobs (exploit), per Appendix A3.2.
func (a *Adapter) generateDirection() []float64 {
	if a.ImportantAxes != nil && a.st.PhaseImprove >= a.ImproveThreshold {
		if idx := a.ImportantAxes(); len(idx) > 0 {
			d := make([]float64, a.Dim)
			d[idx[a.rng.Intn(len(idx))]] = 1
			return d
		}
	}
	// Random unit direction.
	d := make([]float64, a.Dim)
	norm := 0.0
	for i := range d {
		d[i] = a.rng.NormFloat64()
		norm += d[i] * d[i]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		d[0] = 1
		return d
	}
	for i := range d {
		d[i] /= norm
	}
	return d
}

// TopAxes returns the important direction oracle's answer for
// per-dimension importances: the five most important dimensions of
// positive importance, most important first.
func TopAxes(v []float64) []int {
	const k = 5
	idx := make([]int, 0, len(v))
	for i, x := range v {
		if x > 0 {
			idx = append(idx, i)
		}
	}
	// Selection sort is fine for k = 5.
	for i := 0; i < len(idx) && i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if v[idx[j]] > v[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:min(k, len(idx))]
}
