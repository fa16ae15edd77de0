package mathx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func clone(a *Matrix) *Matrix {
	return &Matrix{Rows: a.Rows, Cols: a.Cols, Data: VecClone(a.Data)}
}

// junk is an n×n matrix of arbitrary finite values and NaNs: the
// factorizations' scratch must not depend on what it held.
func junk(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[i] = math.NaN()
		} else {
			m.Data[i] = rng.NormFloat64() * 1e3
		}
	}
	return m
}

// bothPaths factors copies of a with the scalar reference and the AVX
// kernel through choleskyJitter and fails unless the jitter and the
// error agree, and on success the packed factor, bit for bit.
func bothPaths(t *testing.T, rng *rand.Rand, what string, a *Matrix, maxJitter float64) {
	t.Helper()
	n := a.Rows
	var jit [2]float64
	var err [2]error
	var dst [2][]float64
	for p, vec := range []bool{false, true} {
		dst[p] = junk(rng, n).Data[:tri(n)]
		jit[p], err[p] = choleskyJitter(dst[p], junk(rng, n), clone(a), maxJitter, vec)
	}
	if err[0] != err[1] || math.Float64bits(jit[0]) != math.Float64bits(jit[1]) {
		t.Fatalf("%s: scalar gave jitter %v, err %v; the kernel gave %v, %v", what, jit[0], err[0], jit[1], err[1])
	}
	if err[0] == nil && !bitsEqual(dst[0], dst[1]) {
		for i := range dst[0] {
			if math.Float64bits(dst[0][i]) != math.Float64bits(dst[1][i]) {
				t.Fatalf("%s: packed factor entry %d: scalar %v, kernel %v", what, i, dst[0][i], dst[1][i])
			}
		}
	}
}

// failsAt is the column at which the scalar reference finds a's pivot
// not positive, or n: column c fails exactly when the leading
// (c+1)×(c+1) block does.
func failsAt(a *Matrix) int {
	n := a.Rows
	for m := 1; m <= n; m++ {
		b := NewMatrix(m, m)
		for i := 0; i < m; i++ {
			copy(b.Data[i*m:(i+1)*m], a.Data[i*n:i*n+m])
		}
		if choleskyInto(make([]float64, tri(m)), b) != nil {
			return m - 1
		}
	}
	return n
}

// sameColumns runs both factorizations of a, with no jitter, and fails
// unless they return the same error and agree bit for bit on every
// column the scalar reference completed.
func sameColumns(t *testing.T, rng *rand.Rand, what string, a *Matrix) {
	t.Helper()
	n := a.Rows
	done := failsAt(a)
	ds, dv, lv := junk(rng, n).Data[:tri(n)], junk(rng, n).Data[:tri(n)], junk(rng, n)
	es, ev := choleskyInto(ds, clone(a)), choleskyT(dv, lv, clone(a))
	if es != ev || (es == nil) != (done == n) {
		t.Fatalf("%s: scalar err %v, kernel err %v, scalar fails at column %d of %d", what, es, ev, done, n)
	}
	for j := 0; j < done; j++ {
		for i := j; i < n; i++ {
			v := lv.Data[j*n+i] // the kernel's transpose: only packed on success
			if es == nil {
				v = dv[tri(i)+j]
			}
			if s := ds[tri(i)+j]; math.Float64bits(s) != math.Float64bits(v) {
				t.Fatalf("%s: L[%d][%d] (column %d of %d done): scalar %v, kernel %v", what, i, j, j, done, s, v)
			}
		}
	}
}

// spd is B Bᵀ + diag·I for a Gaussian n×n B, with NaN above the
// diagonal: only the lower triangle is read.
func spd(rng *rand.Rand, n int, diag float64) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.Mul(b.T()).AddDiag(diag)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Data[i*n+j] = math.NaN()
		}
	}
	return a
}

// The AVX kernel is bit-identical to the scalar loop it replaces, which
// is what keeps every factor, weight, likelihood and advice digest
// unchanged: every order through two blocks of sixteen rows and more,
// positive-definiteness lost at a chosen column, non-finite, negative
// zero and subnormal entries, and the jitter retries.
func TestCholeskyKernelBitIdenticalToScalar(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX on this CPU: the scalar loop is the only factorization")
	}
	rng := rand.New(rand.NewSource(55))
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		for n := 1; n <= 130; n++ {
			bothPaths(t, rng, fmt.Sprintf("seed %d n=%d", seed, n), spd(r, n, 1e-3*float64(seed)), 0)
		}
	}
	for _, n := range []int{1, 5, 16, 17, 33, 50, 80} {
		for _, c := range []int{0, 1, n / 2, n - 1} {
			if c >= n {
				continue
			}
			for _, bad := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(-1)} {
				a := spd(rng, n, 1)
				a.Data[c*n+c] = bad
				sameColumns(t, rng, fmt.Sprintf("n=%d pivot %d set to %v", n, c, bad), a)
			}
			// An off-diagonal entry far larger than its pivots makes the
			// pivot of its row's column negative.
			if c > 0 {
				a := spd(rng, n, 1)
				a.Data[c*n+c/2] = 1e4
				sameColumns(t, rng, fmt.Sprintf("n=%d entry (%d,%d) large", n, c, c/2), a)
			}
		}
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, 1e-310}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		a := spd(rng, n, float64(n))
		for m := 1 + rng.Intn(3); m > 0; m-- {
			i := rng.Intn(n)
			j := rng.Intn(i + 1)
			a.Data[i*n+j] = specials[rng.Intn(len(specials))]
		}
		sameColumns(t, rng, fmt.Sprintf("trial %d n=%d", trial, n), a)
		bothPaths(t, rng, fmt.Sprintf("trial %d n=%d", trial, n), a, 0)
	}
	// Subnormal and zero-heavy matrices: a tiny scale keeps products and
	// differences in the subnormal range.
	for n := 1; n <= 40; n++ {
		a := spd(rng, n, 1)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if rng.Intn(3) == 0 {
					a.Data[i*n+j] = math.Copysign(0, -1)
				} else {
					a.Data[i*n+j] *= 1e-300
				}
			}
		}
		sameColumns(t, rng, fmt.Sprintf("subnormal n=%d", n), a)
		bothPaths(t, rng, fmt.Sprintf("subnormal n=%d", n), a, 0)
	}
	// Rank-deficient Gram matrices need jitter; both paths must retry to
	// the same level and produce the same factor.
	for n := 2; n <= 90; n += 11 {
		for rank := 1; rank < n; rank += 1 + n/3 {
			b := NewMatrix(n, rank)
			for i := range b.Data {
				b.Data[i] = rng.NormFloat64()
			}
			bothPaths(t, rng, fmt.Sprintf("n=%d rank %d", n, rank), b.Mul(b.T()), 1e-3)
			bothPaths(t, rng, fmt.Sprintf("n=%d rank %d, capped", n, rank), b.Mul(b.T()), 1e-9)
		}
	}
}

// BenchmarkCholesky times CholeskyJitter's factorization, packing
// included, on the scalar loop and the AVX kernel at the window sizes a
// cluster model sees (the sliding window's cap is 80).
func BenchmarkCholesky(b *testing.B) {
	for _, n := range []int{8, 25, 50, 80} {
		a := spd(rand.New(rand.NewSource(int64(n))), n, float64(n))
		dst, l := make([]float64, tri(n)), NewMatrix(n, n)
		for _, vec := range []bool{false, true} {
			name := fmt.Sprintf("n=%d/scalar", n)
			if vec {
				name = fmt.Sprintf("n=%d/avx", n)
			}
			b.Run(name, func(b *testing.B) {
				if vec && !hasAVX {
					b.Skip("no AVX on this CPU")
				}
				for i := 0; i < b.N; i++ {
					if _, err := choleskyJitter(dst, l, a, 0, vec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
