package forest

import (
	"math"
	"math/rand"
	"testing"
)

func TestTreeFitsStepFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		v := rng.Float64()
		x = append(x, []float64{v})
		if v > 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	tr := NewTree(5, 3)
	tr.Fit(x, y, rng)
	if tr.Predict([]float64{0.1}) > 0.2 || tr.Predict([]float64{0.9}) < 0.8 {
		t.Fatalf("step not learned: f(0.1)=%v f(0.9)=%v",
			tr.Predict([]float64{0.1}), tr.Predict([]float64{0.9}))
	}
}

func TestTreeEmptyAndConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := NewTree(3, 2)
	tr.Fit(nil, nil, rng)
	if tr.Predict([]float64{1}) != 0 {
		t.Fatal("empty tree should predict 0")
	}
	tr2 := NewTree(3, 2)
	tr2.Fit([][]float64{{0}, {1}, {2}}, []float64{5, 5, 5}, rng)
	if tr2.Predict([]float64{0.5}) != 5 {
		t.Fatal("constant target should predict the constant")
	}
}

func TestForestRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(x []float64) float64 { return 3*x[0] - 2*x[1] + x[0]*x[1] }
	var xs [][]float64
	var ys []float64
	for i := 0; i < 400; i++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		xs = append(xs, p)
		ys = append(ys, f(p)+0.01*rng.NormFloat64())
	}
	fr := NewForest(30, 8, 3)
	fr.Fit(xs, ys, 7)
	if r2 := fr.R2(xs, ys); r2 < 0.85 {
		t.Fatalf("forest R2 = %v, want ≥ 0.85", r2)
	}
}

func TestImportanceIdentifiesRelevantFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// y depends strongly on feature 0, weakly on 1, not at all on 2..4.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 400; i++ {
		p := make([]float64, 5)
		for j := range p {
			p[j] = rng.Float64()
		}
		xs = append(xs, p)
		ys = append(ys, 10*p[0]+1*p[1]+0.02*rng.NormFloat64())
	}
	fr := NewForest(30, 8, 3)
	fr.Fit(xs, ys, 9)
	imp := fr.Importance(xs, ys, 11)
	if len(imp) != 5 {
		t.Fatalf("importance length %d", len(imp))
	}
	if imp[0] < imp[1] || imp[1] < imp[2] {
		t.Fatalf("importance ordering wrong: %v", imp)
	}
	if imp[0] < 0.5 {
		t.Fatalf("dominant feature importance %v, want > 0.5", imp[0])
	}
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance: %v", imp)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v", sum)
	}
}

func TestImportanceDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 60; i++ {
		xs = append(xs, []float64{rng.Float64(), rng.Float64()})
		ys = append(ys, xs[i][0])
	}
	orig := make([][]float64, len(xs))
	for i := range xs {
		orig[i] = append([]float64{}, xs[i]...)
	}
	fr := NewForest(10, 5, 2)
	fr.Fit(xs, ys, 1)
	fr.Importance(xs, ys, 2)
	for i := range xs {
		for j := range xs[i] {
			if xs[i][j] != orig[i][j] {
				t.Fatal("Importance mutated the data")
			}
		}
	}
}

func TestForestEmpty(t *testing.T) {
	fr := NewForest(5, 3, 2)
	fr.Fit(nil, nil, 1)
	if fr.Predict([]float64{1}) != 0 {
		t.Fatal("empty forest should predict 0")
	}
	if fr.Importance(nil, nil, 1) != nil {
		t.Fatal("empty importance should be nil")
	}
}
