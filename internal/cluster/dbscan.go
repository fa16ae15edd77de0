// Package cluster implements the clustering machinery of OnlineTune's
// scalability strategy (§5.3): DBSCAN over context features, plus the
// normalized mutual-information score that decides when the clustering
// must be re-learned.
//
// Distance semantics: every eps in this package is an absolute Euclidean
// (L2) radius, compared against mathx.Dist2 — whose trailing "2" names
// the norm order, NOT a squared distance. A point at Euclidean distance
// exactly eps is inside the neighborhood. TestEpsIsEuclideanRadius pins
// this down so the distance index (dist.go), the one neighbor source,
// cannot silently change it.
package cluster

import (
	"math"

	"repro/internal/mathx"
)

// Noise is the DBSCAN label for points not assigned to any cluster.
const Noise = -1

// DBSCANResult holds cluster assignments.
type DBSCANResult struct {
	// Labels maps each input point to a cluster id in [0, NumClusters) or
	// Noise.
	Labels []int
	// NumClusters is the number of clusters found.
	NumClusters int
}

// neighborSource answers fixed-radius neighbor queries for dbscanFrom.
// neighbors must append every j (self included) whose Euclidean distance
// to point i is ≤ eps, in ascending index order — the order a scan over
// all points produces, so every source yields identical clusters. The
// tests' per-query scan is the reference the index is checked against.
type neighborSource interface {
	size() int
	neighbors(i int, out []int) []int
}

// DBSCAN clusters points by density (Ester et al., 1996). eps is the
// Euclidean neighborhood radius (see the package comment); minPts the
// density threshold (a point is core if its eps-neighborhood, itself
// included, holds at least minPts points).
func DBSCAN(points [][]float64, eps float64, minPts int) DBSCANResult {
	return (&DistMatrix{pts: points}).DBSCAN(eps, minPts) // needs no nearest lists
}

// dbscanFrom is the DBSCAN core over any neighbor source.
func dbscanFrom(ns neighborSource, minPts int) DBSCANResult {
	n := ns.size()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -2 // unvisited
	}
	var nb, queue []int
	cluster := 0
	for i := 0; i < n; i++ {
		if labels[i] != -2 {
			continue
		}
		nb = ns.neighbors(i, nb[:0])
		if len(nb) < minPts {
			labels[i] = Noise
			continue
		}
		labels[i] = cluster
		// Expand the cluster with a work queue.
		queue = append(queue[:0], nb...)
		for head := 0; head < len(queue); head++ {
			j := queue[head]
			if labels[j] == Noise {
				labels[j] = cluster // border point
			}
			if labels[j] != -2 {
				continue
			}
			labels[j] = cluster
			nb = ns.neighbors(j, nb[:0])
			if len(nb) >= minPts {
				queue = append(queue, nb...)
			}
		}
		cluster++
	}
	return DBSCANResult{Labels: labels, NumClusters: cluster}
}

// AssignNearest maps noise points to the cluster of their nearest labeled
// neighbor, so every observation belongs to some model's training set.
// If everything is noise, all points join cluster 0.
func (r *DBSCANResult) AssignNearest(points [][]float64) {
	r.assignNearest(func(i, j int) float64 { return mathx.Dist2(points[i], points[j]) })
}

// assignNearest is AssignNearest over any distance oracle.
func (r *DBSCANResult) assignNearest(dist func(i, j int) float64) {
	if r.NumClusters == 0 {
		for i := range r.Labels {
			r.Labels[i] = 0
		}
		r.NumClusters = 1
		return
	}
	for i, l := range r.Labels {
		if l != Noise {
			continue
		}
		best, bestD := 0, math.Inf(1)
		for j, lj := range r.Labels {
			if lj == Noise || j == i {
				continue
			}
			if d := dist(i, j); d < bestD {
				best, bestD = lj, d
			}
		}
		r.Labels[i] = best
	}
}

// SuggestEps picks an eps for DBSCAN from the k-distance distribution.
func SuggestEps(points [][]float64, k int) float64 {
	return NewDistMatrix(points).SuggestEps(k)
}
