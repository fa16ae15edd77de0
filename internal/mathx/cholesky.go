package mathx

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite even after jitter.
var ErrNotPositiveDefinite = errors.New("mathx: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L Lᵀ.
// A must be square and symmetric positive definite; only its lower
// triangle is read. The returned matrix has zeros above the diagonal.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("mathx: Cholesky requires a square matrix")
	}
	l := NewMatrix(a.Rows, a.Rows)
	if err := choleskyInto(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyInto writes the factor of the n×n matrix a over the lower
// triangle of the n×n matrix l. It reads a's lower triangle and touches
// nothing above l's diagonal; on failure l's lower triangle is garbage.
func choleskyInto(l, a *Matrix) error {
	n := a.Rows
	for j := 0; j < n; j++ {
		lj := l.Data[j*n : j*n+j]
		d := a.Data[j*n+j]
		for _, ljk := range lj {
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Data[j*n+j] = ljj
		// Column j below the diagonal, four rows at a time: each entry's
		// sum runs over k in the same order as one row at a time would,
		// but the four running sums do not wait on each other.
		i := j + 1
		for ; i+3 < n; i += 4 {
			l0 := l.Data[i*n:][:len(lj)]
			l1 := l.Data[(i+1)*n:][:len(lj)]
			l2 := l.Data[(i+2)*n:][:len(lj)]
			l3 := l.Data[(i+3)*n:][:len(lj)]
			s0, s1, s2, s3 := a.Data[i*n+j], a.Data[(i+1)*n+j], a.Data[(i+2)*n+j], a.Data[(i+3)*n+j]
			for k, ljk := range lj {
				s0 -= l0[k] * ljk
				s1 -= l1[k] * ljk
				s2 -= l2[k] * ljk
				s3 -= l3[k] * ljk
			}
			l.Data[i*n+j], l.Data[(i+1)*n+j], l.Data[(i+2)*n+j], l.Data[(i+3)*n+j] = s0/ljj, s1/ljj, s2/ljj, s3/ljj
		}
		for ; i < n; i++ {
			li := l.Data[i*n:][:len(lj)]
			s := a.Data[i*n+j]
			for k, ljk := range lj {
				s -= li[k] * ljk
			}
			l.Data[i*n+j] = s / ljj
		}
	}
	return nil
}

// CholeskyExtend extends the lower Cholesky factor L of an n×n matrix A
// to the factor of the bordered (n+1)×(n+1) matrix
//
//	[ A   k ]
//	[ kᵀ  d ]
//
// in O(n²): the new off-diagonal row is c = L⁻¹k and the new diagonal
// entry is √(d − cᵀc). It returns ErrNotPositiveDefinite when the
// extension loses positive-definiteness (d − cᵀc ≤ 0 or numerically
// negligible relative to d); callers should then refactorize from
// scratch, typically via CholeskyJitter.
func CholeskyExtend(l *Matrix, k []float64, d float64) (*Matrix, error) {
	n := l.Rows
	if l.Cols != n {
		return nil, errors.New("mathx: CholeskyExtend requires a square factor")
	}
	if len(k) != n {
		return nil, errors.New("mathx: CholeskyExtend border length mismatch")
	}
	c := SolveLower(l, k)
	s := d - Dot(c, c)
	// Guard against a numerically tiny pivot as well as a negative one: a
	// pivot many orders of magnitude below the diagonal scale means the
	// extension has lost almost all precision and a fresh factorization
	// (with jitter if needed) is the safe path.
	if s <= 0 || math.IsNaN(s) || s < 1e-12*math.Abs(d) {
		return nil, ErrNotPositiveDefinite
	}
	out := NewMatrix(n+1, n+1)
	for i := 0; i < n; i++ {
		copy(out.Data[i*(n+1):i*(n+1)+i+1], l.Data[i*n:i*n+i+1])
	}
	copy(out.Data[n*(n+1):n*(n+1)+n], c)
	out.Set(n, n, math.Sqrt(s))
	return out, nil
}

// CholeskyJitter factors the n×n matrix a into the lower triangle of the
// n×n matrix l, leaving what is above l's diagonal alone (zeros, in a
// fresh matrix or an earlier factor). If the factorization fails it
// retries with 1e-10, 1e-9, ... up to maxJitter added to a's diagonal,
// in place. It returns the jitter that was finally used; on error l's
// lower triangle is garbage.
func CholeskyJitter(l, a *Matrix, maxJitter float64) (float64, error) {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n {
		return 0, errors.New("mathx: CholeskyJitter requires square matrices of one size")
	}
	if choleskyInto(l, a) == nil {
		return 0, nil
	}
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = a.Data[i*n+i]
	}
	for jit := 1e-10; jit <= maxJitter; jit *= 10 {
		for i, d := range diag {
			a.Data[i*n+i] = d + jit
		}
		if choleskyInto(l, a) == nil {
			return jit, nil
		}
	}
	return 0, ErrNotPositiveDefinite
}

// SolveLower solves L x = b for lower-triangular L by forward substitution.
func SolveLower(l *Matrix, b []float64) []float64 {
	x := VecClone(b)
	SolveLowerInPlace(l, x)
	return x
}

// SolveLowerInPlace solves L x = b in place, overwriting b with the
// solution. It is the allocation-free core of SolveLower for hot loops
// that reuse a scratch buffer.
func SolveLowerInPlace(l *Matrix, b []float64) {
	n := l.Rows
	if len(b) != n {
		panic("mathx: SolveLowerInPlace dimension mismatch")
	}
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Data[i*l.Cols : i*l.Cols+i]
		for k, lv := range row {
			s -= lv * b[k]
		}
		b[i] = s / l.At(i, i)
	}
}

// SolveUpperTInPlace solves Lᵀ x = b for lower-triangular L (i.e. an
// upper-triangular solve against the transpose) by back substitution,
// overwriting b with the solution.
func SolveUpperTInPlace(l *Matrix, b []float64) {
	n := l.Rows
	if len(b) != n {
		panic("mathx: SolveUpperTInPlace dimension mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * b[k]
		}
		b[i] = s / l.At(i, i)
	}
}

// CholeskySolve solves A x = b given the Cholesky factor L of A.
func CholeskySolve(l *Matrix, b []float64) []float64 {
	x := VecClone(b)
	CholeskySolveInPlace(l, x)
	return x
}

// CholeskySolveInPlace solves A x = b in place given the Cholesky
// factor L of A: a forward and a back substitution.
func CholeskySolveInPlace(l *Matrix, b []float64) {
	SolveLowerInPlace(l, b)
	SolveUpperTInPlace(l, b)
}

// LogDetFromCholesky returns log |A| = 2 Σ log L_ii.
func LogDetFromCholesky(l *Matrix) float64 {
	s := 0.0
	for i := 0; i < l.Rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}
