package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("At wrong: %+v", m)
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatal("Set failed")
	}
	mt := m.T()
	if mt.At(1, 0) != 2 || mt.At(0, 1) != 3 {
		t.Fatalf("transpose wrong: %+v", mt)
	}
}

func TestMatrixMul(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := MatrixFromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c := a.Mul(b)
	want := MatrixFromRows([][]float64{{58, 64}, {139, 154}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want.At(i, j) {
				t.Fatalf("Mul(%d,%d) = %v, want %v", i, j, c.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestIdentityMulIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := Identity(4).Mul(a)
	for i := range a.Data {
		if !almostEq(a.Data[i], b.Data[i], 1e-12) {
			t.Fatalf("identity mul changed data at %d", i)
		}
	}
}

func randSPD(rng *rand.Rand, n int) *Matrix {
	// A = B Bᵀ + n·I is symmetric positive definite.
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return b.Mul(b.T()).AddDiag(float64(n))
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		a := randSPD(rng, n)
		l, err := cholesky(a)
		if err != nil {
			t.Fatalf("Cholesky failed on SPD matrix: %v", err)
		}
		back := l.Mul(l.T())
		for i := range a.Data {
			if !almostEq(a.Data[i], back.Data[i], 1e-8) {
				t.Fatalf("trial %d: LLᵀ != A at %d: %v vs %v", trial, i, back.Data[i], a.Data[i])
			}
		}
	}
}

func TestCholeskyRejectsNonPD(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

// A singular matrix is factored after jitter is added to its diagonal
// in place, and the factor is the one Cholesky gives for a copy with that
// jitter: retries restart from the original diagonal, not the last try's.
func TestCholeskyJitterRecovers(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 1}, {1, 1}}) // rank 1
	p := make([]float64, 3)
	jit, err := CholeskyJitter(p, NewMatrix(2, 2), a, 1e-3)
	if err != nil {
		t.Fatalf("jitter failed: %v", err)
	}
	if jit == 0 {
		t.Fatal("expected nonzero jitter")
	}
	want, err := cholesky(MatrixFromRows([][]float64{{1, 1}, {1, 1}}).AddDiag(jit))
	if err != nil {
		t.Fatal(err)
	}
	if l := unpack(p, 2); !bitsEqual(l.Data, want.Data) {
		t.Fatalf("factor %v, want Cholesky of the matrix plus %v on its diagonal: %v", l.Data, jit, want.Data)
	}
	if _, err := CholeskyJitter(p, NewMatrix(3, 3), a, 1e-3); err == nil {
		t.Fatal("expected a size-mismatch error")
	}
	if _, err := CholeskyJitter(make([]float64, 4), NewMatrix(2, 2), a, 1e-3); err == nil {
		t.Fatal("expected a packed-length error")
	}
	if _, err := CholeskyJitter(p, NewMatrix(2, 2), MatrixFromRows([][]float64{{1, 2}, {2, 1}}), 1e-3); err != ErrNotPositiveDefinite {
		t.Fatalf("indefinite input: err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(10)
		a := randSPD(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		l, err := packed(a)
		if err != nil {
			t.Fatal(err)
		}
		got := CholeskySolve(l, b)
		for i := range x {
			if !almostEq(got[i], x[i], 1e-6) {
				t.Fatalf("solve mismatch at %d: %v vs %v", i, got[i], x[i])
			}
		}
	}
}

func TestLogDetFromCholesky(t *testing.T) {
	a := MatrixFromRows([][]float64{{4, 0}, {0, 9}})
	l, err := packed(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := LogDetFromCholesky(l), math.Log(36); !almostEq(got, want, 1e-12) {
		t.Fatalf("logdet = %v, want %v", got, want)
	}
}

func TestDotNormDist(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
	if !almostEq(Dist2([]float64{0, 0}, []float64{3, 4}), 5, 1e-12) {
		t.Fatal("Dist2 wrong")
	}
}

func TestVecOps(t *testing.T) {
	a, b := []float64{1, 2}, []float64{3, 5}
	if got := VecAdd(a, b); got[0] != 4 || got[1] != 7 {
		t.Fatalf("VecAdd = %v", got)
	}
	if got := VecSub(b, a); got[0] != 2 || got[1] != 3 {
		t.Fatalf("VecSub = %v", got)
	}
	if got := VecScale(2, a); got[0] != 2 || got[1] != 4 {
		t.Fatalf("VecScale = %v", got)
	}
}

// Property: Cholesky solve inverts MulVec for random SPD systems.
func TestQuickCholeskyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randSPD(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		l, err := packed(a)
		if err != nil {
			return false
		}
		got := CholeskySolve(l, a.MulVec(x))
		for i := range x {
			if !almostEq(got[i], x[i], 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b := NewMatrix(r, k), NewMatrix(k, c)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		lhs := a.Mul(b).T()
		rhs := b.T().Mul(a.T())
		for i := range lhs.Data {
			if !almostEq(lhs.Data[i], rhs.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
