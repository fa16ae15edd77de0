package cluster

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/mathx"
)

// nearestKept is how many of each point's smallest distances the index
// keeps: k+1 for the k = 4 of the re-cluster check's SuggestEps(4), so
// KDistance can interpolate across the k-th order statistic.
const nearestKept = 5

// extendBlock bounds how many new points Extend measures at once, and
// with it the transient distance buffer (extendBlock·n floats).
const extendBlock = 64

// DistMatrix is a nearest-distance index over a growing point set — the
// work shared between the k-distance eps heuristic, DBSCAN's neighbor
// scans and noise assignment. For every point it keeps only its
// nearestKept smallest Euclidean distances to the others, so it stays
// O(n·k) resident however long the periodic re-cluster check runs; the
// neighbor scans and noise assignment recompute distances from the
// points. It extends incrementally: each check over the same contexts
// plus a few new ones measures only the new points against the rest.
type DistMatrix struct {
	pts [][]float64
	// near[i*nearestKept:][:nearestKept] holds point i's smallest
	// distances to the other points, ascending; slots beyond the n−1
	// others are +Inf.
	near []float64
}

// NewDistMatrix builds the index for points (nil is a valid empty index
// to Extend later). Distance computation fans across the bounded worker
// pool.
func NewDistMatrix(points [][]float64) *DistMatrix {
	m := &DistMatrix{}
	m.Extend(points)
	return m
}

// Len returns the number of indexed points.
func (m *DistMatrix) Len() int { return len(m.pts) }

// Held returns how many distances the index keeps resident.
func (m *DistMatrix) Held() int { return len(m.near) }

// Extend indexes the points beyond Len(). points must be a superset
// extension of the previously indexed sequence: points[:Len()] are
// assumed identical to what was indexed before and are not re-read.
// Each new point's distance to every earlier point is computed once and
// offered to both points' nearest lists; a list keeps the same smallest
// values whatever order they arrive in.
func (m *DistMatrix) Extend(points [][]float64) {
	old := len(m.pts)
	if len(points) <= old {
		return
	}
	m.pts = append(m.pts, points[old:]...)
	n := len(m.pts)
	for range (n - old) * nearestKept {
		m.near = append(m.near, math.Inf(1))
	}
	buf := make([]float64, min(extendBlock, n-old)*n)
	for lo := old; lo < n; lo += extendBlock {
		hi := min(lo+extendBlock, n)
		// Row i of the block: its distances to every earlier point,
		// offered to i's own list (one goroutine per row) nearest index
		// first — drifting contexts then fill the list early and reject
		// the rest, where an ascending scan would insert nearly every one …
		mathx.ParallelFor(hi-lo, func(r int) {
			i, row := lo+r, buf[r*n:]
			for j := i - 1; j >= 0; j-- {
				row[j] = mathx.Dist2(m.pts[i], m.pts[j])
				m.offer(i, row[j])
			}
		})
		// … then to each earlier point's list, row by row.
		for r := range hi - lo {
			for j, d := range buf[r*n : r*n+lo+r] {
				m.offer(j, d)
			}
		}
	}
}

// offer inserts d into point i's nearest list if it is among the
// smallest: it replaces the largest kept distance and sinks into place.
func (m *DistMatrix) offer(i int, d float64) {
	ds := m.near[i*nearestKept : (i+1)*nearestKept]
	if !(d < ds[nearestKept-1]) {
		return
	}
	ds[nearestKept-1] = d
	for p := nearestKept - 1; p > 0 && ds[p] < ds[p-1]; p-- {
		ds[p], ds[p-1] = ds[p-1], ds[p]
	}
}

// Dist returns the Euclidean distance between points i and j.
func (m *DistMatrix) Dist(i, j int) float64 {
	if i == j {
		return 0
	}
	return mathx.Dist2(m.pts[i], m.pts[j])
}

// KDistance returns the distance from each point to its k-th nearest
// neighbor, interpolated exactly as mathx.Quantile would over the point's
// sorted distances: q·(len−1) can land an ulp either side of k−1, so
// both neighbors of the k-th order statistic are read. For k below
// nearestKept it reads the kept lists in O(n); a larger k sorts every
// point's full distance row.
func (m *DistMatrix) KDistance(k int) []float64 {
	n := m.Len()
	out := make([]float64, n)
	if n < 2 {
		return out
	}
	kk := min(k, n-1)
	keep := max(1, min(kk+1, n-1))
	q := float64(kk-1) / math.Max(1, float64(n-2))
	if keep <= nearestKept {
		for i := range out {
			out[i] = mathx.QuantileSorted(m.near[i*nearestKept:][:keep], n-1, q)
		}
		return out
	}
	mathx.ParallelFor(n, func(i int) {
		ds := make([]float64, 0, n-1)
		for j := range n {
			if j != i {
				ds = append(ds, m.Dist(i, j))
			}
		}
		slices.Sort(ds)
		out[i] = mathx.QuantileSorted(ds, n-1, q)
	})
	return out
}

// SuggestEps picks an eps for DBSCAN from the k-distance distribution —
// identical to the package-level SuggestEps, without recomputing
// distances.
func (m *DistMatrix) SuggestEps(k int) float64 {
	if m.Len() < 2 {
		return 1
	}
	eps := mathx.Quantile(m.KDistance(k), 0.90)
	if eps <= 0 {
		eps = 1e-6
	}
	return eps
}

// DBSCAN clusters the indexed points (eps is a Euclidean radius; see the
// package comment). The eps-neighborhoods are a transient n×n bit
// matrix, dropped with the result: one parallel pass measures the pairs
// j ≤ i into row i, a sequential pass mirrors them, and a query reads
// its row in ascending index order.
func (m *DistMatrix) DBSCAN(eps float64, minPts int) DBSCANResult {
	n := m.Len()
	adj := bitRows{n: n, w: (n + 63) / 64}
	adj.bits = make([]uint64, n*adj.w)
	mathx.ParallelFor(n, func(i int) {
		for j := range i + 1 {
			if m.Dist(i, j) <= eps {
				adj.set(i, j)
			}
		}
	})
	// Row i gains its later neighbors only after it is read here.
	var nb []int
	for i := range n {
		nb = adj.neighbors(i, nb[:0])
		for _, j := range nb {
			if j < i {
				adj.set(j, i)
			}
		}
	}
	return dbscanFrom(adj, minPts)
}

// AssignNearest maps r's noise points to their nearest labeled neighbor.
func (m *DistMatrix) AssignNearest(r *DBSCANResult) {
	r.assignNearest(m.Dist)
}

// bitRows answers neighbor queries from an n×n bit matrix of w words
// per row.
type bitRows struct {
	bits []uint64
	n, w int
}

func (b bitRows) set(i, j int) { b.bits[i*b.w+j/64] |= 1 << (j % 64) }

func (b bitRows) size() int { return b.n }

func (b bitRows) neighbors(i int, out []int) []int {
	for k, word := range b.bits[i*b.w : (i+1)*b.w] {
		for ; word != 0; word &= word - 1 {
			out = append(out, k*64+bits.TrailingZeros64(word))
		}
	}
	return out
}
