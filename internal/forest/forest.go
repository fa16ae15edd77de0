// Package forest implements CART regression trees and random forests,
// used for the fANOVA-style knob-importance estimates that drive
// OnlineTune's "important direction" oracle for line regions (Appendix
// A3.2; Hutter et al., 2014 quantify importance from tree ensembles).
package forest

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/mathx"
)

// node is one tree node; leaves have feature == -1.
type node struct {
	feature     int
	threshold   float64
	left, right *node
	value       float64
}

// Tree is a CART regression tree.
type Tree struct {
	root        *node
	MaxDepth    int
	MinLeaf     int
	MaxFeatures int // features sampled per split; 0 means all
}

// NewTree returns a regression tree with the given limits.
func NewTree(maxDepth, minLeaf int) *Tree {
	return &Tree{MaxDepth: maxDepth, MinLeaf: minLeaf}
}

// Fit grows the tree on (x, y).
func (t *Tree) Fit(x [][]float64, y []float64, rng *rand.Rand) {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(x, y, idx, 0, rng)
}

func (t *Tree) grow(x [][]float64, y []float64, idx []int, depth int, rng *rand.Rand) *node {
	if len(idx) == 0 {
		return &node{feature: -1}
	}
	mean := 0.0
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	if depth >= t.MaxDepth || len(idx) < 2*t.MinLeaf {
		return &node{feature: -1, value: mean}
	}

	nFeat := len(x[0])
	feats := make([]int, nFeat)
	for i := range feats {
		feats[i] = i
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < nFeat {
		rng.Shuffle(nFeat, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:t.MaxFeatures]
	}

	bestFeat, bestThr, bestScore := -1, 0.0, math.Inf(1)
	vals := make([]float64, 0, len(idx))
	for _, f := range feats {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, x[i][f])
		}
		sort.Float64s(vals)
		// Candidate thresholds: quantiles between distinct values.
		for q := 0.1; q < 1; q += 0.1 {
			thr := vals[int(q*float64(len(vals)-1))]
			var sl, sr, nl, nr, sl2, sr2 float64
			for _, i := range idx {
				if x[i][f] <= thr {
					sl += y[i]
					sl2 += y[i] * y[i]
					nl++
				} else {
					sr += y[i]
					sr2 += y[i] * y[i]
					nr++
				}
			}
			if nl < float64(t.MinLeaf) || nr < float64(t.MinLeaf) {
				continue
			}
			score := (sl2 - sl*sl/nl) + (sr2 - sr*sr/nr) // total SSE
			if score < bestScore {
				bestFeat, bestThr, bestScore = f, thr, score
			}
		}
	}
	if bestFeat < 0 {
		return &node{feature: -1, value: mean}
	}
	var li, ri []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &node{feature: -1, value: mean}
	}
	return &node{
		feature:   bestFeat,
		threshold: bestThr,
		left:      t.grow(x, y, li, depth+1, rng),
		right:     t.grow(x, y, ri, depth+1, rng),
	}
}

// Predict returns the tree's estimate at x.
func (t *Tree) Predict(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for n.feature >= 0 {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Forest is a bagged ensemble of regression trees.
type Forest struct {
	Trees    []*Tree
	NumTrees int
	MaxDepth int
	MinLeaf  int
}

// NewForest returns a random forest configuration.
func NewForest(numTrees, maxDepth, minLeaf int) *Forest {
	return &Forest{NumTrees: numTrees, MaxDepth: maxDepth, MinLeaf: minLeaf}
}

// Fit trains the forest on bootstrap samples with feature subsampling.
func (f *Forest) Fit(x [][]float64, y []float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := len(x)
	if n == 0 {
		return
	}
	nFeat := len(x[0])
	maxFeat := int(math.Max(1, float64(nFeat)/3))
	f.Trees = f.Trees[:0]
	for ti := 0; ti < f.NumTrees; ti++ {
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = x[j]
			by[i] = y[j]
		}
		tr := NewTree(f.MaxDepth, f.MinLeaf)
		tr.MaxFeatures = maxFeat
		tr.Fit(bx, by, rng)
		f.Trees = append(f.Trees, tr)
	}
}

// Predict averages the trees.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.Trees) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range f.Trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.Trees))
}

// Importance estimates per-feature importance by permutation: the
// increase in forest MSE when one feature's column is shuffled. The
// result is normalized to sum to 1 (all-zero if the forest is
// uninformative). This is the practical estimator behind fANOVA-style
// knob ranking.
func (f *Forest) Importance(x [][]float64, y []float64, seed int64) []float64 {
	if len(x) == 0 || len(f.Trees) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	nFeat := len(x[0])
	baseMSE := f.mse(x, y)
	imp := make([]float64, nFeat)
	perm := make([]int, len(x))
	for i := range perm {
		perm[i] = i
	}
	col := make([]float64, len(x))
	for fi := 0; fi < nFeat; fi++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := range x {
			col[i] = x[i][fi]
		}
		for i := range x {
			x[i][fi] = col[perm[i]]
		}
		imp[fi] = math.Max(0, f.mse(x, y)-baseMSE)
		for i := range x {
			x[i][fi] = col[i]
		}
	}
	total := 0.0
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

func (f *Forest) mse(x [][]float64, y []float64) float64 {
	s := 0.0
	for i := range x {
		d := f.Predict(x[i]) - y[i]
		s += d * d
	}
	return s / float64(len(x))
}

// R2 returns the coefficient of determination of the forest on (x, y).
func (f *Forest) R2(x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	varY := mathx.Variance(y)
	if varY == 0 {
		return 0
	}
	return 1 - f.mse(x, y)/varY
}
