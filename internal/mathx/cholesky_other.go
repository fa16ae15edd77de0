//go:build !amd64

package mathx

// hasAVX is false off amd64: the scalar loop is the only factorization,
// and the AVX kernel's entry points are never called.
const hasAVX = false

func column(lt *float64, n int, col []float64) bool { panic("mathx: no AVX kernel") }
func transposeLower(l, a *float64, n int)           { panic("mathx: no AVX kernel") }
func packTransposed(dst, l *float64, n int)         { panic("mathx: no AVX kernel") }
