package mathx

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned when a matrix to factorize is not
// (numerically) symmetric positive definite, even after jitter.
var ErrNotPositiveDefinite = errors.New("mathx: matrix is not positive definite")

// tri is the length of the packed lower triangle of an n×n matrix,
// n(n+1)/2: row i starts at tri(i) and holds i+1 entries.
func tri(n int) int { return n * (n + 1) / 2 }

// choleskyInto writes the factor of the n×n matrix a into dst, packed
// row by row. It reads a's lower triangle; on failure dst is garbage.
//
// It is the reference the AVX kernel (choleskyT) must match bit for bit,
// and the only factorization off amd64 or without AVX. Its contract is
// the order of each entry's arithmetic: L[i][j] starts at a[i][j], has
// L[i][k]·L[j][k] subtracted for k = 0, 1, …, j-1, each product rounded
// before its difference (the float64 conversions forbid a fused
// multiply-add), and is then divided by L[j][j], the square root of the
// diagonal entry's own running value, which must be positive.
func choleskyInto(dst []float64, a *Matrix) error {
	n := a.Rows
	for j := 0; j < n; j++ {
		lj := dst[tri(j):][:j]
		d := a.Data[j*n+j]
		for _, ljk := range lj {
			d -= float64(ljk * ljk)
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		dst[tri(j)+j] = ljj
		// Column j below the diagonal, four rows at a time: each entry's
		// sum runs over k in the same order as one row at a time would,
		// but the four running sums do not wait on each other.
		i := j + 1
		for ; i+3 < n; i += 4 {
			l0 := dst[tri(i):][:len(lj)]
			l1 := dst[tri(i+1):][:len(lj)]
			l2 := dst[tri(i+2):][:len(lj)]
			l3 := dst[tri(i+3):][:len(lj)]
			s0, s1, s2, s3 := a.Data[i*n+j], a.Data[(i+1)*n+j], a.Data[(i+2)*n+j], a.Data[(i+3)*n+j]
			for k, ljk := range lj {
				s0 -= float64(l0[k] * ljk)
				s1 -= float64(l1[k] * ljk)
				s2 -= float64(l2[k] * ljk)
				s3 -= float64(l3[k] * ljk)
			}
			dst[tri(i)+j], dst[tri(i+1)+j], dst[tri(i+2)+j], dst[tri(i+3)+j] = s0/ljj, s1/ljj, s2/ljj, s3/ljj
		}
		for ; i < n; i++ {
			li := dst[tri(i):][:len(lj)]
			s := a.Data[i*n+j]
			for k, ljk := range lj {
				s -= float64(li[k] * ljk)
			}
			dst[tri(i)+j] = s / ljj
		}
	}
	return nil
}

// choleskyT is choleskyInto on the AVX kernel: the same left-looking
// algorithm, column by column, over the factor's transpose, which it
// keeps in the upper triangle of the n×n scratch l (row j holds column j
// of L from the diagonal on) so that the rows i ≥ j of column j are
// contiguous. Each of a register's four lanes carries one entry through
// choleskyInto's exact sequence of roundings, so the factor, packed into
// dst at the end, is bit-identical. On failure dst is unchanged.
func choleskyT(dst []float64, l, a *Matrix) error {
	n := a.Rows
	transposeLower(&l.Data[0], &a.Data[0], n)
	for i := n &^ 3; i < n; i++ {
		for j, v := range a.Data[i*n : i*n+i+1] {
			l.Data[j*n+i] = v
		}
	}
	for j := 0; j < n; j++ {
		if !column(&l.Data[j], n, l.Data[j*n+j:j*n+n]) {
			return ErrNotPositiveDefinite
		}
	}
	packTransposed(&dst[0], &l.Data[0], n)
	for i := n &^ 3; i < n; i++ {
		row := dst[tri(i):tri(i+1)]
		for k := range row {
			row[k] = l.Data[k*n+i]
		}
	}
	return nil
}

// vectorFrom is the smallest order CholeskyJitter hands to the AVX
// kernel: below it the kernel's per-column work outweighs its four lanes
// (BenchmarkCholesky).
const vectorFrom = 16

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

// CholeskyJitter factors the n×n matrix a into dst, the packed lower
// factor of n(n+1)/2 entries that the solves take, with the n×n matrix l
// as scratch (its contents do not matter). It reads only a's lower
// triangle. If the factorization fails it retries with 1e-10, 1e-9, ...
// up to maxJitter added to a's diagonal, in place. It returns the jitter
// that was finally used; on error dst is garbage.
//
// The factorization runs on the AVX kernel (choleskyT) where the CPU has
// AVX and n ≥ vectorFrom, and on the scalar loop (choleskyInto)
// otherwise. The two are bit-identical, so nothing but the CPU and the
// size chooses between them.
func CholeskyJitter(dst []float64, l, a *Matrix, maxJitter float64) (float64, error) {
	return choleskyJitter(dst, l, a, maxJitter, hasAVX && a.Rows >= vectorFrom)
}

// choleskyJitter is CholeskyJitter on the AVX kernel when vec is set.
func choleskyJitter(dst []float64, l, a *Matrix, maxJitter float64, vec bool) (float64, error) {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n || len(dst) != tri(n) {
		return 0, errors.New("mathx: CholeskyJitter requires square matrices of one size and a packed triangle of that size")
	}
	if factor(dst, l, a, vec) == nil {
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
		if factor(dst, l, a, vec) == nil {
			return jit, nil
		}
	}
	return 0, ErrNotPositiveDefinite
}

func factor(dst []float64, l, a *Matrix, vec bool) error {
	if vec {
		return choleskyT(dst, l, a)
	}
	return choleskyInto(dst, a)
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
