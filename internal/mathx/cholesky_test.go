package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// cholesky is the n×n factor of a without jitter, unpacked into the
// lower triangle of a fresh matrix.
func cholesky(a *Matrix) (*Matrix, error) {
	p, err := packed(a)
	if err != nil {
		return nil, err
	}
	return unpack(p, a.Rows), nil
}

// packed is a's factor without jitter, in the packed form the solves
// take.
func packed(a *Matrix) ([]float64, error) {
	p := make([]float64, tri(a.Rows))
	if _, err := CholeskyJitter(p, NewMatrix(a.Rows, a.Rows), a, 0); err != nil {
		return nil, err
	}
	return p, nil
}

// unpack is the n×n matrix whose lower triangle is the packed p.
func unpack(p []float64, n int) *Matrix {
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(l.Data[i*n:], p[tri(i):tri(i+1)])
	}
	return l
}

// Property: extending a factor one bordered row at a time reproduces the
// from-scratch Cholesky factor of the full matrix.
func TestCholeskyExtendMatchesFullFactorization(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(18)
		a := randSPD(rng, n)
		l, err := packed(&Matrix{Rows: 1, Cols: 1, Data: []float64{a.At(0, 0)}})
		if err != nil {
			return false
		}
		for k := 1; k < n; k++ {
			border := make([]float64, k)
			for i := 0; i < k; i++ {
				border[i] = a.At(k, i)
			}
			l, err = CholeskyExtend(l, border, a.At(k, k))
			if err != nil {
				return false
			}
		}
		full, err := packed(a)
		if err != nil || len(l) != len(full) {
			return false
		}
		for i := range full {
			if math.Abs(full[i]-l[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyExtendRejectsNonPD(t *testing.T) {
	// Extending I₂ with a border that makes the matrix singular
	// (duplicate row) must fail rather than produce a NaN factor.
	l, err := packed(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CholeskyExtend(l, []float64{1, 0}, 1); err != ErrNotPositiveDefinite {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
	if _, err := CholeskyExtend(l, []float64{2, 0}, 1); err != ErrNotPositiveDefinite {
		t.Fatalf("indefinite extension: expected ErrNotPositiveDefinite, got %v", err)
	}
}

func TestCholeskyExtendDimensionErrors(t *testing.T) {
	l, _ := packed(Identity(3))
	if _, err := CholeskyExtend(l, []float64{1, 2}, 5); err == nil {
		t.Fatal("expected border length error")
	}
	if _, err := CholeskyExtend(make([]float64, 4), []float64{1, 2}, 5); err == nil {
		t.Fatal("expected an error for a factor that is no packed triangle")
	}
}

// The packed solves are forward and back substitution on the full
// factor through At, bit for bit.
func TestSolveLowerInPlaceMatchesSolveLower(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSPD(rng, 8)
	l, err := packed(a)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := cholesky(a)
	b := make([]float64, 8)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ref := VecClone(b)
	for i := 0; i < 8; i++ {
		for k := 0; k < i; k++ {
			ref[i] -= full.At(i, k) * ref[k]
		}
		ref[i] /= full.At(i, i)
	}
	got := VecClone(b)
	SolveLowerInPlace(l, got)
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("packed forward substitution differs from the full-matrix reference at %d: %v vs %v", i, got[i], ref[i])
		}
	}
	for i := 7; i >= 0; i-- {
		for k := i + 1; k < 8; k++ {
			ref[i] -= full.At(k, i) * ref[k]
		}
		ref[i] /= full.At(i, i)
	}
	got = CholeskySolve(l, b)
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("packed solve differs from the full-matrix reference at %d: %v vs %v", i, got[i], ref[i])
		}
	}
}

func TestParallelForCoversAllIterationsOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		SetMaxWorkers(workers)
		for _, n := range []int{0, 1, 3, 33, 1000} {
			hits := make([]int32, n)
			ParallelFor(n, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: iteration %d ran %d times", workers, n, i, h)
				}
			}
		}
	}
	SetMaxWorkers(0)
}

// choleskyAt is the element-accessor factorization Cholesky replaced,
// kept as the reference for its summation order.
func choleskyAt(a *Matrix) (*Matrix, error) {
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, nil
}

// Property: the row-slice Cholesky is bit-identical to the At-based
// reference, reads only the lower triangle, and fails on the same input.
func TestCholeskyBitIdenticalToAtReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 7, 80} {
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := b.Mul(b.T()).AddDiag(1e-3)
		want, err := choleskyAt(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ { // poison the upper triangle
			for j := i + 1; j < n; j++ {
				a.Set(i, j, math.NaN())
			}
		}
		got, err := cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("n=%d: factor differs from the At-based reference at %d: %v vs %v", n, i, got.Data[i], want.Data[i])
			}
		}
	}
	indef := MatrixFromRows([][]float64{{1, 2}, {2, 1}})
	if _, err := cholesky(indef); err != ErrNotPositiveDefinite {
		t.Fatalf("indefinite input: err = %v, want ErrNotPositiveDefinite", err)
	}
}
