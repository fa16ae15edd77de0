package svm

import (
	"math/rand"
	"testing"
)

func TestBinaryLinearlySeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		x = append(x, []float64{rng.NormFloat64()*0.3 - 2, rng.NormFloat64() * 0.3})
		y = append(y, -1)
		x = append(x, []float64{rng.NormFloat64()*0.3 + 2, rng.NormFloat64() * 0.3})
		y = append(y, 1)
	}
	s := NewBinary(1.0, LinearKernel())
	s.Fit(x, y, 7)
	errs := 0
	for i := range x {
		if s.Predict(x[i]) != y[i] {
			errs++
		}
	}
	if errs > 2 {
		t.Fatalf("%d training errors on separable data", errs)
	}
	if s.Predict([]float64{-3, 0}) != -1 || s.Predict([]float64{3, 0}) != 1 {
		t.Fatal("misclassifies obvious points")
	}
}

func TestBinaryRBFNonlinear(t *testing.T) {
	// XOR-like pattern is not linearly separable but RBF handles it.
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []float64
	for i := 0; i < 30; i++ {
		a := []float64{rng.Float64()*0.5 + 0.25, rng.Float64()*0.5 + 0.25}
		q := rng.Intn(4)
		p := []float64{a[0] + float64(q%2)*2, a[1] + float64(q/2)*2}
		x = append(x, p)
		if q == 0 || q == 3 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	s := NewBinary(10, RBFKernel(1.0))
	s.Fit(x, y, 3)
	errs := 0
	for i := range x {
		if s.Predict(x[i]) != y[i] {
			errs++
		}
	}
	if float64(errs)/float64(len(x)) > 0.15 {
		t.Fatalf("RBF SVM failed XOR: %d/%d errors", errs, len(x))
	}
}

func TestBinaryEmptyFit(t *testing.T) {
	s := NewBinary(1, LinearKernel())
	s.Fit(nil, nil, 1)
	if got := s.Predict([]float64{1, 2}); got != 1 {
		t.Fatalf("empty model should default positive, got %v", got)
	}
}

func TestMulticlassThreeBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	centers := [][]float64{{0, 0}, {4, 0}, {0, 4}}
	var x [][]float64
	var y []int
	for c, ctr := range centers {
		for i := 0; i < 25; i++ {
			x = append(x, []float64{ctr[0] + rng.NormFloat64()*0.4, ctr[1] + rng.NormFloat64()*0.4})
			y = append(y, c)
		}
	}
	m := NewMulticlass(5, RBFKernel(0.5))
	m.Fit(x, y, 11)
	if len(m.classes) != 3 {
		t.Fatalf("NumClasses = %d", len(m.classes))
	}
	errs := 0
	for i := range x {
		if m.Predict(x[i]) != y[i] {
			errs++
		}
	}
	if float64(errs)/float64(len(x)) > 0.1 {
		t.Fatalf("multiclass errors %d/%d", errs, len(x))
	}
	// New points near centers classify correctly.
	for c, ctr := range centers {
		if m.Predict(ctr) != c {
			t.Fatalf("center %d misclassified as %d", c, m.Predict(ctr))
		}
	}
}

func TestMulticlassSingleClass(t *testing.T) {
	m := NewMulticlass(1, LinearKernel())
	m.Fit([][]float64{{0}, {1}}, []int{7, 7}, 1)
	if m.Predict([]float64{0.5}) != 7 {
		t.Fatal("single-class model must predict that class")
	}
}

func TestMulticlassEmpty(t *testing.T) {
	m := NewMulticlass(1, LinearKernel())
	if m.Predict([]float64{1}) != 0 {
		t.Fatal("unfitted multiclass should predict 0")
	}
}
