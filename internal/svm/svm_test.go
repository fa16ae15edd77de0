package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx"
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

// refFit is plain SMO, the reference Fit must match bit for bit: it
// builds the kernel matrix per call and rescans all n multipliers for
// every decision value.
func refFit(s *Binary, x [][]float64, y []float64, seed int64) {
	n := len(x)
	s.Fitted = Fitted{Alphas: make([]float64, n)}
	if n == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	k := mathx.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := s.Kern(x[i], x[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	f := func(i int) float64 {
		out := s.B
		for j := 0; j < n; j++ {
			if s.Alphas[j] != 0 {
				out += s.Alphas[j] * y[j] * k.At(j, i)
			}
		}
		return out
	}
	passes := 0
	for passes < s.MaxIt {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if !((y[i]*ei < -s.Tol && s.Alphas[i] < s.C) || (y[i]*ei > s.Tol && s.Alphas[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - y[j]
			ai, aj := s.Alphas[i], s.Alphas[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(s.C, s.C+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-s.C)
				hi = math.Min(s.C, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*k.At(i, j) - k.At(i, i) - k.At(j, j)
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			ajNew = mathx.Clamp(ajNew, lo, hi)
			if math.Abs(ajNew-aj) < 1e-5 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)
			b1 := s.B - ei - y[i]*(aiNew-ai)*k.At(i, i) - y[j]*(ajNew-aj)*k.At(i, j)
			b2 := s.B - ej - y[i]*(aiNew-ai)*k.At(i, j) - y[j]*(ajNew-aj)*k.At(j, j)
			switch {
			case aiNew > 0 && aiNew < s.C:
				s.B = b1
			case ajNew > 0 && ajNew < s.C:
				s.B = b2
			default:
				s.B = (b1 + b2) / 2
			}
			s.Alphas[i], s.Alphas[j] = aiNew, ajNew
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	sv := Fitted{B: s.B}
	for i, a := range s.Alphas {
		if a != 0 {
			sv.X, sv.Y, sv.Alphas = append(sv.X, x[i]), append(sv.Y, y[i]), append(sv.Alphas, a)
		}
	}
	s.Fitted = sv
}

// sameFitted reports whether two fits agree bit for bit.
func sameFitted(a, b Fitted) bool {
	same := func(u, v []float64) bool {
		if len(u) != len(v) {
			return false
		}
		for i := range u {
			if math.Float64bits(u[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}
	if math.Float64bits(a.B) != math.Float64bits(b.B) || !same(a.Y, b.Y) || !same(a.Alphas, b.Alphas) || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if !same(a.X[i], b.X[i]) {
			return false
		}
	}
	return true
}

// TestFitMatchesReference: the cached decision values and the shared
// kernel matrix change no bit of any fit. Problems are random clouds of
// 2 to 200 points in 3 dimensions with 1 to 4 classes drawn with skewed
// frequencies, so some binary problems are heavily imbalanced; the
// multiclass fit must equal one reference binary fit per class. The two
// largest run once, with the RBF kernel OnlineTune uses: the reference
// costs O(n²) per pass.
func TestFitMatchesReference(t *testing.T) {
	type problem struct {
		seed int64
		n    int
	}
	var problems []problem
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{2, 3, 5, 9, 17, 40, 67} {
			problems = append(problems, problem{seed, n})
		}
	}
	problems = append(problems, problem{5, 120}, problem{6, 200})
	for _, p := range problems {
		rng := rand.New(rand.NewSource(p.seed*1000 + int64(p.n)))
		classes := 1 + int(p.seed+int64(p.n))%4
		x := make([][]float64, p.n)
		labels := make([]int, p.n)
		for i := range x {
			c := int(float64(classes) * rng.Float64() * rng.Float64())
			labels[i] = c
			x[i] = []float64{float64(c) + rng.NormFloat64(), rng.NormFloat64(), rng.Float64()}
		}
		kernels := []Kernel{RBFKernel(2.0), LinearKernel()}
		if p.n > 67 {
			kernels = kernels[:1]
		}
		for _, kern := range kernels {
			m := NewMulticlass(5, kern)
			m.Fit(x, labels, p.seed)
			st := m.State()
			for ci, c := range st.Classes {
				y := make([]float64, p.n)
				for i, l := range labels {
					y[i] = -1
					if l == c {
						y[i] = 1
					}
				}
				ref := NewBinary(5, kern)
				refFit(ref, x, y, p.seed+int64(ci))
				if !sameFitted(st.Models[ci], ref.Fitted) {
					t.Fatalf("seed %d n %d class %d: multiclass fit differs from the reference", p.seed, p.n, c)
				}
				b := NewBinary(5, kern)
				b.Fit(x, y, p.seed+int64(ci))
				if !sameFitted(b.Fitted, ref.Fitted) {
					t.Fatalf("seed %d n %d class %d: binary fit differs from the reference", p.seed, p.n, c)
				}
			}
		}
	}
}
