package mathx

// hasAVX reports whether the CPU runs AVX and the OS saves its
// registers, which is all the AVX Cholesky kernel needs.
var hasAVX = cpuHasAVX()

func cpuHasAVX() bool

// column finishes column j = n-len(col) of the factor whose transpose
// choleskyT keeps in an n×n matrix: col is the transpose's row j from the
// diagonal on, holding the matrix's column j, and lt points into its row
// 0 at entry j. From each entry of col it subtracts lt[k][0]·lt[k][i]
// for k = 0, …, j-1 in order, a product then a difference, four entries
// to an AVX register. The pivot col[0] then becomes its square root, or
// column returns false when it is not positive, and the entries below it
// are divided by it.
//
//go:noescape
func column(lt *float64, n int, col []float64) bool

// transposeLower copies the n×n matrix a's lower triangle, transposed,
// over l's upper triangle in 4×4 tiles: every entry of the first
// 4⌊n/4⌋ rows. Its diagonal tiles also write below l's diagonal.
//
//go:noescape
func transposeLower(l, a *float64, n int)

// packTransposed is the inverse for the packed factor dst: the entries
// of its first 4⌊n/4⌋ rows, read from the transpose in l's upper
// triangle in 4×4 tiles.
//
//go:noescape
func packTransposed(dst, l *float64, n int)
