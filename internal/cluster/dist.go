package cluster

import (
	"math"

	"repro/internal/mathx"
)

// DistMatrix caches pairwise Euclidean distances over a growing point
// set — the work shared between DBSCAN's neighbor scans, the k-distance
// eps heuristic, and noise assignment. It extends incrementally: when
// the periodic re-cluster check runs again over the same contexts plus a
// few new ones, only the new rows are computed, instead of rebuilding
// the O(n²) matrix from scratch.
type DistMatrix struct {
	pts  [][]float64
	rows [][]float64 // rows[i][j] = Dist2(pts[i], pts[j]) for j < i
}

// NewDistMatrix builds the matrix for points (nil is a valid empty
// matrix to Extend later). Row computation fans across the bounded
// worker pool.
func NewDistMatrix(points [][]float64) *DistMatrix {
	m := &DistMatrix{}
	m.Extend(points)
	return m
}

// Len returns the number of indexed points.
func (m *DistMatrix) Len() int { return len(m.pts) }

// Extend indexes the points beyond Len(). points must be a superset
// extension of the previously indexed sequence: points[:Len()] are
// assumed identical to what was indexed before (contexts are append-only
// in the repository) and are not re-read.
func (m *DistMatrix) Extend(points [][]float64) {
	old := len(m.pts)
	if len(points) <= old {
		return
	}
	m.pts = append(m.pts, points[old:]...)
	newRows := make([][]float64, len(m.pts)-old)
	mathx.ParallelFor(len(newRows), func(k int) {
		i := old + k
		row := make([]float64, i)
		for j := 0; j < i; j++ {
			row[j] = mathx.Dist2(m.pts[i], m.pts[j])
		}
		newRows[k] = row
	})
	m.rows = append(m.rows, newRows...)
}

// Dist returns the cached Euclidean distance between points i and j.
func (m *DistMatrix) Dist(i, j int) float64 {
	switch {
	case i == j:
		return 0
	case i > j:
		return m.rows[i][j]
	default:
		return m.rows[j][i]
	}
}

// KDistance returns the distance from each point to its k-th nearest
// neighbor, from cached distances. Each row keeps only its k+1 smallest
// distances (sorted by insertion, O(n·k) per row) and interpolates
// between them exactly as mathx.Quantile would over the sorted row:
// q·(len−1) can land an ulp either side of k−1, so both neighbors of
// the k-th order statistic are kept.
func (m *DistMatrix) KDistance(k int) []float64 {
	n := m.Len()
	out := make([]float64, n)
	if n < 2 {
		return out
	}
	kk := min(k, n-1)
	keep := max(1, min(kk+1, n-1))
	q := float64(kk-1) / math.Max(1, float64(n-2))
	mathx.ParallelFor(n, func(i int) {
		ds := make([]float64, 0, keep)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			// d joins at the tail — appended while the row is short, else
			// replacing the largest kept distance — and sinks into place.
			if d := m.Dist(i, j); len(ds) < keep {
				ds = append(ds, d)
			} else if d < ds[keep-1] {
				ds[keep-1] = d
			} else {
				continue
			}
			for p := len(ds) - 1; p > 0 && ds[p] < ds[p-1]; p-- {
				ds[p], ds[p-1] = ds[p-1], ds[p]
			}
		}
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

// DBSCAN clusters the indexed points using cached distances for the
// neighbor scans (eps is a Euclidean radius; see the package comment).
func (m *DistMatrix) DBSCAN(eps float64, minPts int) DBSCANResult {
	return dbscanFrom(&matrixSource{m: m, eps: eps}, minPts)
}

// AssignNearest maps r's noise points to their nearest labeled neighbor
// using cached distances.
func (m *DistMatrix) AssignNearest(r *DBSCANResult) {
	r.assignNearest(m.Dist)
}

// matrixSource answers neighbor queries from the cached matrix.
type matrixSource struct {
	m   *DistMatrix
	eps float64
}

func (s *matrixSource) size() int { return s.m.Len() }

func (s *matrixSource) neighbors(i int, out []int) []int {
	n := s.m.Len()
	for j := 0; j < n; j++ {
		if s.m.Dist(i, j) <= s.eps {
			out = append(out, j)
		}
	}
	return out
}
