package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if Mean(v) != 2.5 {
		t.Fatalf("Mean = %v", Mean(v))
	}
	if !almostEq(Variance(v), 1.25, 1e-12) {
		t.Fatalf("Variance = %v", Variance(v))
	}
	if Mean(nil) != 0 || Variance([]float64{5}) != 0 {
		t.Fatal("degenerate cases wrong")
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if Quantile(v, 0) != 1 || Quantile(v, 1) != 4 {
		t.Fatal("extreme quantiles wrong")
	}
	if !almostEq(Quantile(v, 0.5), 2.5, 1e-12) {
		t.Fatalf("median = %v", Quantile(v, 0.5))
	}
	// Input not modified.
	if v[0] != 4 {
		t.Fatal("Quantile mutated input")
	}
}

func TestMinMaxArg(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5}
	if Min(v) != 1 || Max(v) != 5 {
		t.Fatal("Min/Max wrong")
	}
	if ArgMax(v) != 4 {
		t.Fatal("ArgMax wrong")
	}
	if ArgMax(nil) != -1 {
		t.Fatal("empty ArgMax should be -1")
	}
}

func TestNormalCDF(t *testing.T) {
	if !almostEq(NormalCDF(0), 0.5, 1e-12) {
		t.Fatal("CDF(0) != 0.5")
	}
	if !almostEq(NormalCDF(1.959963985), 0.975, 1e-6) {
		t.Fatalf("CDF(1.96) = %v", NormalCDF(1.959963985))
	}
	// PDF integrates roughly to 1 over [-6, 6] by trapezoid.
	sum := 0.0
	xs := Linspace(-6, 6, 1201)
	for i := 0; i < len(xs)-1; i++ {
		sum += (NormalPDF(xs[i]) + NormalPDF(xs[i+1])) / 2 * (xs[i+1] - xs[i])
	}
	if !almostEq(sum, 1, 1e-6) {
		t.Fatalf("PDF integral = %v", sum)
	}
}

func TestCumSumLinspace(t *testing.T) {
	ls := Linspace(0, 1, 5)
	if ls[0] != 0 || ls[4] != 1 || !almostEq(ls[2], 0.5, 1e-12) {
		t.Fatalf("Linspace = %v", ls)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
	v := ClampVec([]float64{-1, 0.3, 2})
	if v[0] != 0 || v[2] != 1 || v[1] != 0.3 {
		t.Fatalf("ClampVec = %v", v)
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	// Minimize (x-3)^2 + (y+1)^2.
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
	}
	x, v := NelderMead(f, []float64{0, 0}, nil)
	if !almostEq(x[0], 3, 1e-3) || !almostEq(x[1], -1, 1e-3) {
		t.Fatalf("NelderMead min at %v", x)
	}
	if v > 1e-5 {
		t.Fatalf("NelderMead value %v", v)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, _ := NelderMead(f, []float64{-1.2, 1}, &NelderMeadOptions{MaxIter: 4000})
	if !almostEq(x[0], 1, 5e-2) || !almostEq(x[1], 1, 1e-1) {
		t.Fatalf("Rosenbrock min at %v", x)
	}
}

func TestNelderMeadClipped(t *testing.T) {
	f := func(x []float64) float64 { return -(x[0]) } // maximized at upper clip
	x, _ := NelderMead(f, []float64{0.5}, &NelderMeadOptions{
		MaxIter: 500, LowerClip: []float64{0}, UpperClip: []float64{1},
	})
	if x[0] > 1+1e-12 {
		t.Fatalf("clip violated: %v", x[0])
	}
	if x[0] < 0.99 {
		t.Fatalf("did not reach clip boundary: %v", x[0])
	}
}

// Property: quantile is monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			cur := Quantile(v, q)
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
