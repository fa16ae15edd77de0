package mathx

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned when a matrix to factorize is not
// (numerically) symmetric positive definite, even after jitter.
var ErrNotPositiveDefinite = errors.New("mathx: matrix is not positive definite")

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

// tri is the length of the packed lower triangle of an n×n matrix,
// n(n+1)/2: row i starts at tri(i) and holds i+1 entries.
func tri(n int) int { return n * (n + 1) / 2 }

// PackLower copies the lower triangle of the n×n matrix l into dst,
// row by row; dst has n(n+1)/2 entries. The solves below take a factor in
// this packed form.
func PackLower(dst []float64, l *Matrix) {
	n := l.Rows
	for i := 0; i < n; i++ {
		copy(dst[tri(i):tri(i+1)], l.Data[i*n:])
	}
}

// CholeskyExtend extends the packed lower Cholesky factor L of an n×n
// matrix A to the factor of the bordered (n+1)×(n+1) matrix
//
//	[ A   k ]
//	[ kᵀ  d ]
//
// in O(n²): the new row's off-diagonal is c = L⁻¹k and its diagonal
// entry is √(d − cᵀc), appended after L's rows in an exact-size slice.
// It returns ErrNotPositiveDefinite when the extension loses
// positive-definiteness (d − cᵀc ≤ 0 or numerically negligible relative
// to d); callers should then refactorize from scratch, typically via
// CholeskyJitter.
func CholeskyExtend(l, k []float64, d float64) ([]float64, error) {
	n := len(k)
	if len(l) != tri(n) {
		return nil, errors.New("mathx: CholeskyExtend border length mismatch")
	}
	out := make([]float64, tri(n+1))
	copy(out, l)
	c := out[len(l) : len(l)+n]
	copy(c, k)
	SolveLowerInPlace(l, c)
	s := d - Dot(c, c)
	// Guard against a numerically tiny pivot as well as a negative one: a
	// pivot many orders of magnitude below the diagonal scale means the
	// extension has lost almost all precision and a fresh factorization
	// (with jitter if needed) is the safe path.
	if s <= 0 || math.IsNaN(s) || s < 1e-12*math.Abs(d) {
		return nil, ErrNotPositiveDefinite
	}
	out[len(out)-1] = math.Sqrt(s)
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

// SolveLowerInPlace solves L x = b in place for the packed
// lower-triangular L by forward substitution, overwriting b with the
// solution.
func SolveLowerInPlace(l, b []float64) {
	if len(l) != tri(len(b)) {
		panic("mathx: SolveLowerInPlace dimension mismatch")
	}
	for i, off := 0, 0; i < len(b); i, off = i+1, off+i+1 {
		s := b[i]
		for k, lv := range l[off : off+i] {
			s -= lv * b[k]
		}
		b[i] = s / l[off+i]
	}
}

// SolveUpperTInPlace solves Lᵀ x = b for the packed lower-triangular L
// (an upper-triangular solve against the transpose) by back
// substitution, overwriting b with the solution.
func SolveUpperTInPlace(l, b []float64) {
	n := len(b)
	if len(l) != tri(n) {
		panic("mathx: SolveUpperTInPlace dimension mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k, off := i+1, tri(i+1); k < n; k, off = k+1, off+k+1 {
			s -= l[off+i] * b[k]
		}
		b[i] = s / l[tri(i+1)-1]
	}
}

// CholeskySolve solves A x = b given the packed Cholesky factor L of A.
func CholeskySolve(l, b []float64) []float64 {
	x := VecClone(b)
	CholeskySolveInPlace(l, x)
	return x
}

// CholeskySolveInPlace solves A x = b in place given the packed Cholesky
// factor L of A: a forward and a back substitution.
func CholeskySolveInPlace(l, b []float64) {
	SolveLowerInPlace(l, b)
	SolveUpperTInPlace(l, b)
}

// LogDetFromCholesky returns log |A| = 2 Σ log L_ii for the packed L.
func LogDetFromCholesky(l []float64) float64 {
	s := 0.0
	for i, d := 0, 0; d < len(l); i, d = i+1, d+i+2 {
		s += math.Log(l[d])
	}
	return 2 * s
}
