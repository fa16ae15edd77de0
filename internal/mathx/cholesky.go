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
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		lj := l.Data[j*n : j*n+j]
		d := a.Data[j*n+j]
		for _, ljk := range lj {
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
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
	return l, nil
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

// CholeskyJitter is Cholesky with progressive diagonal jitter: if the
// factorization fails it retries with jitter 1e-10, 1e-9, ... up to maxJitter.
// It returns the factor and the jitter that was finally used.
func CholeskyJitter(a *Matrix, maxJitter float64) (*Matrix, float64, error) {
	if l, err := Cholesky(a); err == nil {
		return l, 0, nil
	}
	for jit := 1e-10; jit <= maxJitter; jit *= 10 {
		aj := a.Clone().AddDiag(jit)
		if l, err := Cholesky(aj); err == nil {
			return l, jit, nil
		}
	}
	return nil, 0, ErrNotPositiveDefinite
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

// SolveUpperT solves Lᵀ x = b for lower-triangular L (i.e. an
// upper-triangular solve against the transpose) by back substitution.
func SolveUpperT(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("mathx: SolveUpperT dimension mismatch")
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// CholeskySolve solves A x = b given the Cholesky factor L of A.
func CholeskySolve(l *Matrix, b []float64) []float64 {
	return SolveUpperT(l, SolveLower(l, b))
}

// solveBlock is the column-block width for the multi-right-hand-side
// triangular solves: columns are independent, so blocks of this width
// are fanned across the worker pool while staying contiguous in memory.
const solveBlock = 16

// SolveLowerMulti solves L X = B for lower-triangular L and an n×m
// right-hand-side matrix B by forward substitution, sharing the factor
// traversal across all m columns and fanning independent column blocks
// across the worker pool. It is the general-purpose batched solve; note
// that gp's candidate-scoring hot path instead reuses a scratch vector
// with SolveLowerInPlace per candidate, which benchmarks faster there
// because the dot-product formulation pipelines better at that size.
func SolveLowerMulti(l *Matrix, b *Matrix) *Matrix {
	n := l.Rows
	if b.Rows != n {
		panic("mathx: SolveLowerMulti dimension mismatch")
	}
	m := b.Cols
	x := b.Clone()
	nb := (m + solveBlock - 1) / solveBlock
	ParallelFor(nb, func(bi int) {
		j0 := bi * solveBlock
		j1 := j0 + solveBlock
		if j1 > m {
			j1 = m
		}
		for i := 0; i < n; i++ {
			xrow := x.Data[i*m+j0 : i*m+j1 : i*m+j1]
			lrow := l.Data[i*l.Cols : i*l.Cols+i]
			for k, lv := range lrow {
				if lv == 0 {
					continue
				}
				xk := x.Data[k*m+j0 : k*m+j1 : k*m+j1]
				for j := range xrow {
					xrow[j] -= lv * xk[j]
				}
			}
			inv := 1 / l.At(i, i)
			for j := range xrow {
				xrow[j] *= inv
			}
		}
	})
	return x
}

// SolveUpperTMulti solves Lᵀ X = B for lower-triangular L and an n×m
// right-hand side by back substitution across all columns, with the
// same column-block parallelism as SolveLowerMulti.
func SolveUpperTMulti(l *Matrix, b *Matrix) *Matrix {
	n := l.Rows
	if b.Rows != n {
		panic("mathx: SolveUpperTMulti dimension mismatch")
	}
	m := b.Cols
	x := b.Clone()
	nb := (m + solveBlock - 1) / solveBlock
	ParallelFor(nb, func(bi int) {
		j0 := bi * solveBlock
		j1 := j0 + solveBlock
		if j1 > m {
			j1 = m
		}
		for i := n - 1; i >= 0; i-- {
			xrow := x.Data[i*m+j0 : i*m+j1 : i*m+j1]
			for k := i + 1; k < n; k++ {
				lv := l.At(k, i)
				if lv == 0 {
					continue
				}
				xk := x.Data[k*m+j0 : k*m+j1 : k*m+j1]
				for j := range xrow {
					xrow[j] -= lv * xk[j]
				}
			}
			inv := 1 / l.At(i, i)
			for j := range xrow {
				xrow[j] *= inv
			}
		}
	})
	return x
}

// CholeskySolveMulti solves A X = B for an n×m right-hand side given the
// Cholesky factor L of A.
func CholeskySolveMulti(l *Matrix, b *Matrix) *Matrix {
	return SolveUpperTMulti(l, SolveLowerMulti(l, b))
}

// LogDetFromCholesky returns log |A| = 2 Σ log L_ii.
func LogDetFromCholesky(l *Matrix) float64 {
	s := 0.0
	for i := 0; i < l.Rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}

// SolveLinear solves the general square system A x = b by Gaussian
// elimination with partial pivoting. Used for small systems (SVM bias,
// linear probes) where A is not necessarily positive definite.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols || a.Rows != len(b) {
		return nil, errors.New("mathx: SolveLinear dimension mismatch")
	}
	n := a.Rows
	m := a.Clone()
	x := VecClone(b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, pv := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if av := math.Abs(m.At(r, col)); av > pv {
				piv, pv = r, av
			}
		}
		if pv < 1e-14 {
			return nil, errors.New("mathx: SolveLinear singular matrix")
		}
		if piv != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[piv*n+j] = m.Data[piv*n+j], m.Data[col*n+j]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Add(r, j, -f*m.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}
