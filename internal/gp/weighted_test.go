package gp

import (
	"math"
	"testing"
)

func TestMatern52WeightedDistance(t *testing.T) {
	k := NewMatern52(1, 0.3)
	k.Weights = []float64{1, 0.35}
	a := []float64{0, 0}
	// A move of 0.5 along the down-weighted axis must correlate more
	// strongly than the same move along the full-weight axis.
	full := Eval(k, a, []float64{0.5, 0})
	down := Eval(k, a, []float64{0, 0.5})
	if down <= full {
		t.Fatalf("down-weighted axis should stay more correlated: %v vs %v", down, full)
	}
	// Equal to the unweighted kernel at rescaled distance.
	iso := NewMatern52(1, 0.3)
	want := Eval(iso, []float64{0}, []float64{0.5 * 0.35})
	if math.Abs(down-want) > 1e-12 {
		t.Fatalf("weighted eval %v, want %v", down, want)
	}
}

func TestMatern52WeightsCloneIndependent(t *testing.T) {
	k := NewMatern52(1, 0.3)
	k.Weights = []float64{1, 0.5}
	c := k.Clone().(*Matern52)
	c.Weights[1] = 9
	if k.Weights[1] != 0.5 {
		t.Fatal("clone shares the weights slice")
	}
}

func TestContextualWeightedConstruction(t *testing.T) {
	cg := NewContextualWeighted(2, 1, []float64{1, 0.35})
	if err := cg.Fit([][]float64{{0.5, 0.5}}, [][]float64{{0}}, []float64{10}); err != nil {
		t.Fatal(err)
	}
	// A category flip on the down-weighted dim keeps a higher posterior
	// correlation → smaller sigma than the same flip on dim 0.
	sFlip1 := cg.Sigma([]float64{0.5, 1.0}, []float64{0})
	sFlip0 := cg.Sigma([]float64{1.0, 0.5}, []float64{0})
	if sFlip1 >= sFlip0 {
		t.Fatalf("down-weighted flip should be less uncertain: %v vs %v", sFlip1, sFlip0)
	}
}

func TestBestByPosterior(t *testing.T) {
	cg := NewContextual(1, 1)
	// Three configs: 0.2 is consistently good (two samples ~10), 0.8 has
	// one lucky noisy sample (11) surrounded by bad ones (3).
	configs := [][]float64{{0.2}, {0.21}, {0.8}, {0.79}, {0.81}}
	ctxs := [][]float64{{0}, {0}, {0}, {0}, {0}}
	ys := []float64{10, 10.2, 11, 3, 3.2}
	if err := cg.Fit(configs, ctxs, ys); err != nil {
		t.Fatal(err)
	}
	idx, mu, ok := cg.BestByPosterior([]float64{0})
	if !ok {
		t.Fatal("no best")
	}
	best := cg.Config(idx)
	// The posterior smooths the lucky sample down; the robustly good
	// region should win.
	if best[0] > 0.5 {
		t.Fatalf("posterior best picked the lucky outlier at %v (mu=%v)", best[0], mu)
	}
	// Empty model.
	empty := NewContextual(1, 1)
	if _, _, ok := empty.BestByPosterior([]float64{0}); ok {
		t.Fatal("empty model should report no best")
	}
}
