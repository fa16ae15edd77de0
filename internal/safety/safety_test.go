package safety

import (
	"math"
	"testing"

	"repro/internal/gp"
)

// fitted returns a contextual GP trained on a 1-D bump function at ctx 0.
func fitted(t *testing.T) *gp.ContextualGP {
	t.Helper()
	m := gp.NewContextual(1, 1)
	var configs, ctxs [][]float64
	var perf []float64
	for _, th := range []float64{0.0, 0.25, 0.5, 0.75, 1.0} {
		configs = append(configs, []float64{th})
		ctxs = append(ctxs, []float64{0})
		perf = append(perf, 10-20*(th-0.5)*(th-0.5)) // peak 10 at 0.5, min 5
	}
	if err := m.Fit(configs, ctxs, perf); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAssessMarksObservedSafePoints(t *testing.T) {
	m := fitted(t)
	cands := [][]float64{{0.5}, {0.45}}
	a := Assess(m, []float64{0}, cands, 2, 7.0)
	if !a.Safe[0] {
		t.Fatalf("observed best point (perf 10 > τ 7) should be safe; lcb=%v", a.Lower[0])
	}
	if a.NumSafe < 1 {
		t.Fatal("NumSafe wrong")
	}
}

func TestAssessRejectsUncertainFarPoints(t *testing.T) {
	m := fitted(t)
	// Far context: posterior reverts toward the prior; with a threshold
	// above the prior mean everything far should be unsafe.
	a := Assess(m, []float64{50}, [][]float64{{0.5}}, 2, 9.9)
	if a.Safe[0] {
		t.Fatalf("far-context point should not be provably safe: lcb=%v", a.Lower[0])
	}
}

func TestArgMaxUCBPrefersPeak(t *testing.T) {
	m := fitted(t)
	cands := [][]float64{{0.1}, {0.5}, {0.9}}
	a := Assess(m, []float64{0}, cands, 2, 0) // low τ: all safe
	if a.NumSafe != 3 {
		t.Fatalf("all should be safe with τ=0, got %d", a.NumSafe)
	}
	if pick := a.ArgMaxUCB(); pick != 1 {
		t.Fatalf("UCB should pick the peak, got %d (uppers %v)", pick, a.Upper)
	}
}

func TestArgMaxBoundaryPrefersUncertain(t *testing.T) {
	m := fitted(t)
	cands := [][]float64{{0.5}, {0.51}, {0.97}} // 0.97 is farthest from data? (1.0 observed) use 0.6
	a := Assess(m, []float64{0}, cands, 2, 0)
	pick := a.ArgMaxBoundary()
	if pick < 0 {
		t.Fatal("boundary pick missing")
	}
	// The boundary pick must have the max sigma among safe candidates.
	for i := range cands {
		if a.Safe[i] && a.Sigma[i] > a.Sigma[pick] {
			t.Fatalf("boundary pick %d not max-sigma", pick)
		}
	}
}

func TestEmptySafeSet(t *testing.T) {
	m := fitted(t)
	a := Assess(m, []float64{0}, [][]float64{{0.5}}, 2, 1e9)
	if a.NumSafe != 0 || a.ArgMaxUCB() != -1 || a.ArgMaxBoundary() != -1 {
		t.Fatal("impossible threshold should empty the safe set")
	}
}

func TestVeto(t *testing.T) {
	m := fitted(t)
	a := Assess(m, []float64{0}, [][]float64{{0.5}, {0.45}}, 2, 0)
	n := a.NumSafe
	a.Veto(0)
	if a.Safe[0] || a.NumSafe != n-1 {
		t.Fatal("veto should remove exactly one")
	}
	a.Veto(0) // idempotent
	if a.NumSafe != n-1 {
		t.Fatal("double veto should not double count")
	}
}

func TestBetaWidensBounds(t *testing.T) {
	m := fitted(t)
	narrow := Assess(m, []float64{0}, [][]float64{{0.6}}, 1, 0)
	wide := Assess(m, []float64{0}, [][]float64{{0.6}}, 3, 0)
	if wide.Lower[0] >= narrow.Lower[0] || wide.Upper[0] <= narrow.Upper[0] {
		t.Fatal("larger beta must widen the interval")
	}
}

// screenedModel is the contextual GP with its triangular solves
// counted and, when unscreened is set, the floor ignored. A variance the
// GP solved for is never 0 (it is clamped from below at a positive
// value), so the nonzero ones are the solves.
type screenedModel struct {
	gp         *gp.ContextualGP
	unscreened bool
	solves     int
}

func (m *screenedModel) PredictAbove(configs [][]float64, ctx []float64, floor float64) ([]float64, []float64) {
	if m.unscreened {
		floor = math.Inf(-1)
	}
	mus, vars := m.gp.PredictAbove(configs, ctx, floor)
	for _, v := range vars {
		if v != 0 {
			m.solves++
		}
	}
	return mus, vars
}

// The screen: one triangular solve per candidate whose mean reaches τ,
// none for the rest, and an assessment equal to the unscreened one in
// everything that is ever read — Safe, NumSafe, and the bounds of the
// safe. A negative β, under which a mean below τ can still be safe, and
// τ = −Inf (the ablations' "bound them all") solve for every candidate.
func TestAssessScreenSolvesOnlyWhereMeanReachesTau(t *testing.T) {
	g := fitted(t)
	ctx := []float64{0}
	var cands [][]float64
	for th := 0.0; th <= 1; th += 0.0125 {
		cands = append(cands, []float64{th})
	}
	mus, _ := g.PredictAll(cands, ctx)
	bits := math.Float64bits
	mixed := false // some case must split the candidates
	for _, tc := range []struct{ beta, tau float64 }{
		{2, 7}, {2, 9.5}, {0, 8}, {2.5, 100}, {2, math.Inf(-1)}, {-1, 8}, {math.NaN(), 8},
	} {
		want := 0
		for _, mu := range mus {
			if mu >= tc.tau || !(tc.beta >= 0) {
				want++
			}
		}
		mixed = mixed || 0 < want && want < len(cands)
		screened, full := &screenedModel{gp: g}, &screenedModel{gp: g, unscreened: true}
		a, ref := Assess(screened, ctx, cands, tc.beta, tc.tau), Assess(full, ctx, cands, tc.beta, tc.tau)
		if screened.solves != want || full.solves != len(cands) {
			t.Fatalf("β=%v τ=%v: %d solves screened and %d unscreened, want %d and %d",
				tc.beta, tc.tau, screened.solves, full.solves, want, len(cands))
		}
		if a.NumSafe != ref.NumSafe {
			t.Fatalf("β=%v τ=%v: NumSafe %d, unscreened %d", tc.beta, tc.tau, a.NumSafe, ref.NumSafe)
		}
		for i := range cands {
			if a.Safe[i] != ref.Safe[i] {
				t.Fatalf("β=%v τ=%v candidate %d: Safe %v, unscreened %v", tc.beta, tc.tau, i, a.Safe[i], ref.Safe[i])
			}
			if a.Safe[i] && (bits(a.Lower[i]) != bits(ref.Lower[i]) || bits(a.Upper[i]) != bits(ref.Upper[i]) || bits(a.Sigma[i]) != bits(ref.Sigma[i])) {
				t.Fatalf("β=%v τ=%v safe candidate %d: bounds [%v, %v] σ=%v, unscreened [%v, %v] σ=%v",
					tc.beta, tc.tau, i, a.Lower[i], a.Upper[i], a.Sigma[i], ref.Lower[i], ref.Upper[i], ref.Sigma[i])
			}
		}
		if a.ArgMaxUCB() != ref.ArgMaxUCB() || a.ArgMaxBoundary() != ref.ArgMaxBoundary() {
			t.Fatalf("β=%v τ=%v: the screened assessment picks differently", tc.beta, tc.tau)
		}
	}
	if !mixed {
		t.Fatal("no case had means on both sides of τ")
	}
}

// degenerateModel is a safety.Model stub whose posterior reports the
// given variances verbatim — including the tiny negative values a
// near-singular Gram matrix produces through float cancellation.
type degenerateModel struct {
	mus, vars []float64
}

func (d degenerateModel) PredictAbove(configs [][]float64, ctx []float64, floor float64) ([]float64, []float64) {
	return d.mus, d.vars
}

func TestAssessClampsNegativeVariance(t *testing.T) {
	m := degenerateModel{
		mus:  []float64{10, 12, 11},
		vars: []float64{-1e-17, 0, math.NaN()},
	}
	cands := [][]float64{{0.1}, {0.5}, {0.9}}
	a := Assess(m, []float64{0}, cands, 2, 5)
	for i := range cands {
		if math.IsNaN(a.Sigma[i]) || math.IsNaN(a.Lower[i]) || math.IsNaN(a.Upper[i]) {
			t.Fatalf("candidate %d: NaN leaked through assessment: sigma=%v lower=%v upper=%v",
				i, a.Sigma[i], a.Lower[i], a.Upper[i])
		}
		if a.Sigma[i] != 0 {
			t.Fatalf("candidate %d: degenerate variance must clamp sigma to 0, got %v", i, a.Sigma[i])
		}
	}
	// All posterior means clear τ=5 with σ=0, so all are safe and the
	// argmax picks the highest mean instead of silently returning -1.
	if a.NumSafe != 3 {
		t.Fatalf("NumSafe = %d, want 3", a.NumSafe)
	}
	if pick := a.ArgMaxUCB(); pick != 1 {
		t.Fatalf("ArgMaxUCB = %d, want 1 (highest mean)", pick)
	}
	if pick := a.ArgMaxBoundary(); pick < 0 {
		t.Fatal("ArgMaxBoundary poisoned by degenerate variance")
	}
}

func TestAssessNearSingularGP(t *testing.T) {
	// Many duplicated observations drive the GP posterior variance at
	// the training point toward zero; the assessment must stay finite.
	m := gp.NewContextual(1, 1)
	var configs, ctxs [][]float64
	var perf []float64
	for i := 0; i < 30; i++ {
		configs = append(configs, []float64{0.5})
		ctxs = append(ctxs, []float64{0})
		perf = append(perf, 10)
	}
	if err := m.Fit(configs, ctxs, perf); err != nil {
		t.Fatal(err)
	}
	a := Assess(m, []float64{0}, [][]float64{{0.5}, {0.500001}}, 2, 5)
	for i := range a.Candidates {
		if math.IsNaN(a.Sigma[i]) || math.IsNaN(a.Lower[i]) {
			t.Fatalf("near-singular model leaked NaN at %d: %+v", i, a)
		}
	}
	if a.ArgMaxUCB() < 0 {
		t.Fatal("near-singular model emptied the safe set")
	}
}

func TestVetoOutOfRangeIsIgnored(t *testing.T) {
	m := fitted(t)
	a := Assess(m, []float64{0}, [][]float64{{0.5}, {0.45}}, 2, 0)
	n := a.NumSafe
	a.Veto(-1)
	a.Veto(len(a.Safe))
	a.Veto(1000000)
	if a.NumSafe != n {
		t.Fatalf("out-of-range veto corrupted NumSafe: %d -> %d", n, a.NumSafe)
	}
	for i, s := range a.Safe {
		if !s {
			t.Fatalf("out-of-range veto flipped Safe[%d]", i)
		}
	}
}
