package gp

import "math"

// configIndex maps a contextual GP's training rows to their distinct
// configurations. Safe exploration re-applies its incumbent under new
// contexts, so a training window repeats few configurations many times,
// and the configuration kernel is evaluated once per distinct
// configuration, or distinct pair, and its value shared by every row
// that repeats it. Two rows share an entry only when their first dim
// coordinates are bitwise equal, so each shared value is the same pure
// function of the same bits and sharing it changes no result.
// Configurations are numbered by first appearance, so reps increases and
// of[i] ≤ i: a row's configuration is numbered no higher than the row.
type configIndex struct {
	dim  int
	of   []int // row → its configuration
	reps []int // configuration → its first row
}

// reset empties the index.
func (ix *configIndex) reset() {
	if ix != nil {
		ix.of, ix.reps = ix.of[:0], ix.reps[:0]
	}
}

// add indexes the last row of x; the index must cover the rows before it.
func (ix *configIndex) add(x [][]float64) {
	if ix == nil {
		return
	}
	q := x[len(x)-1][:ix.dim]
	for a, r := range ix.reps {
		if sameConfig(x[r][:ix.dim], q) {
			ix.of = append(ix.of, a)
			return
		}
	}
	ix.reps = append(ix.reps, len(ix.of))
	ix.of = append(ix.of, len(ix.reps)-1)
}

// shift drops row 0 and renumbers the rest by first appearance, in
// place: reps' storage holds the old-to-new renumbering until reps is
// read back off the renumbered rows.
func (ix *configIndex) shift() {
	if ix == nil {
		return
	}
	next := ix.reps // old configuration → new one, −1 until seen
	for a := range next {
		next[a] = -1
	}
	k := 0
	for i, a := range ix.of[1:] {
		if next[a] < 0 {
			next[a] = k
			k++
		}
		ix.of[i] = next[a]
	}
	ix.of = ix.of[:len(ix.of)-1]
	ix.reps = ix.reps[:0]
	for i, a := range ix.of {
		if a == len(ix.reps) {
			ix.reps = append(ix.reps, i)
		}
	}
}

func sameConfig(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
