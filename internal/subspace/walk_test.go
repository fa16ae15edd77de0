package subspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

// candidatesRef is Candidates as it was before the walk: every point in
// slices of its own, a line's points as VecAdd(c, VecScale(α, d)). It
// is the reference the walk is checked against.
func candidatesRef(r *Region, n int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, 0, n)
	out = append(out, mathx.VecClone(r.Center))
	switch r.Kind {
	case Hypercube:
		dim := len(r.Center)
		var idx []int
		if r.PerturbK > 0 && r.PerturbK < dim {
			idx = make([]int, dim)
			for i := range idx {
				idx[i] = i
			}
		}
		for len(out) < n {
			p := mathx.VecClone(r.Center)
			if idx != nil {
				for k := 0; k < r.PerturbK; k++ {
					j := k + rng.Intn(dim-k)
					idx[k], idx[j] = idx[j], idx[k]
					i := idx[k]
					p[i] = r.Center[i] + (rng.Float64()*2-1)*r.radiusAt(i)
				}
			} else {
				for i := range p {
					p[i] = r.Center[i] + (rng.Float64()*2-1)*r.radiusAt(i)
				}
			}
			out = append(out, mathx.ClampVec(p))
		}
	default:
		lo, hi, ok := r.alphaRange()
		if !ok || hi <= lo {
			return out
		}
		grid := n - 1
		if grid < 2 {
			grid = 2
		}
		for i := 0; i < grid; i++ {
			alpha := lo + (hi-lo)*float64(i)/float64(grid-1)
			p := mathx.VecAdd(r.Center, mathx.VecScale(alpha, r.Dir))
			out = append(out, mathx.ClampVec(p))
		}
	}
	return out
}

// randomRegion draws a region of one of five shapes: a hypercube
// perturbing every coordinate, one perturbing PerturbK of them (in a
// space wider than the walk's stack scratch now and then), a line, and
// the two degenerate lines — a zero direction and a center in a corner
// whose feasible segment is one point.
func randomRegion(rng *rand.Rand) *Region {
	dim := 1 + rng.Intn(12)
	shape := rng.Intn(5)
	if shape == 1 && rng.Intn(4) == 0 {
		dim = 65 + rng.Intn(10)
	}
	center := make([]float64, dim)
	for i := range center {
		center[i] = rng.Float64()
	}
	minStep := make([]float64, dim)
	for i := range minStep {
		if rng.Intn(3) == 0 {
			minStep[i] = 0.5
		}
	}
	switch shape {
	case 0:
		return &Region{Kind: Hypercube, Center: center, Radius: rng.Float64() * 0.5, MinStep: minStep}
	case 1:
		return &Region{Kind: Hypercube, Center: center, Radius: rng.Float64() * 0.5, MinStep: minStep, PerturbK: 1 + rng.Intn(dim)}
	case 2:
		d := make([]float64, dim)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		n := mNorm(d)
		for i := range d {
			d[i] /= n
		}
		return &Region{Kind: Line, Center: center, Dir: d}
	case 3:
		return &Region{Kind: Line, Center: center, Dir: make([]float64, dim)}
	default:
		s := math.Sqrt(2) / 2
		return &Region{Kind: Line, Center: []float64{1, 1}, Dir: []float64{s, -s}}
	}
}

// TestWalkMatchesReference: over random regions of every shape and
// sizes from 0 to 150, the walk that keeps every point gives the
// reference's points bit for bit, and a walk that keeps one point (any
// index, in range or not) or none leaves the generator where the
// reference left it, with the kept point the reference's.
func TestWalkMatchesReference(t *testing.T) {
	same := func(a, b []float64) bool {
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
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRegion(rng)
		n := rng.Intn(151)
		genSeed := rng.Int63()
		refSrc := mathx.NewSource(genSeed, 0)
		want := candidatesRef(r, n, rand.New(refSrc))

		got := new(Rows).Walk(r, n, rand.New(mathx.NewSource(genSeed, 0)))
		if len(got) != len(want) {
			t.Logf("seed %d: keep-all walk made %d points, reference %d", seed, len(got), len(want))
			return false
		}
		for i := range want {
			if !same(got[i], want[i]) {
				t.Logf("seed %d: point %d is %v, reference %v", seed, i, got[i], want[i])
				return false
			}
		}
		for _, k := range []int{-1, 0, rng.Intn(len(want)), len(want) - 1, len(want)} {
			src := mathx.NewSource(genSeed, 0)
			row, count := r.Walk(n, rand.New(src), k, k+1, nil)
			if count != len(want) || src.Draws() != refSrc.Draws() {
				t.Logf("seed %d: keep %d made %d points in %d draws, reference %d in %d", seed, k, count, src.Draws(), len(want), refSrc.Draws())
				return false
			}
			if k >= 0 && k < len(want) && !same(row, want[k]) || (k < 0 || k >= len(want)) && len(row) != 0 {
				t.Logf("seed %d: keep %d gave %v, reference %v", seed, k, row, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmWalkAllocatesNothing: a walk that keeps every point into a
// warm buffer allocates nothing, for each region shape the tuner walks.
func TestWarmWalkAllocatesNothing(t *testing.T) {
	center := []float64{0.2, 0.4, 0.5, 0.6, 0.8, 0.3, 0.7, 0.5, 0.5, 0.5, 0.1, 0.9}
	for name, r := range map[string]*Region{
		"hypercube": {Kind: Hypercube, Center: center[:5], Radius: 0.05, MinStep: []float64{0, 0.5, 0, 0, 0}},
		"perturb-k": {Kind: Hypercube, Center: center, Radius: 0.05, PerturbK: 8},
		"line":      {Kind: Line, Center: center[:5], Dir: []float64{0, 0, 1, 0, 0}},
	} {
		var b Rows
		rng := rand.New(rand.NewSource(1))
		b.Walk(r, 100, rng)
		if allocs := testing.AllocsPerRun(50, func() {
			b.Walk(r, 40, rng)
			b.Walk(r, 100, rng)
		}); allocs != 0 {
			t.Errorf("%s: a warm walk allocates %v times", name, allocs)
		}
	}
}

// BenchmarkWalk times a 100-point walk of a case5-sized hypercube: the
// reference, a fresh Candidates, a warm keep-all walk and a walk that
// keeps one point.
func BenchmarkWalk(b *testing.B) {
	r := &Region{Kind: Hypercube, Center: []float64{0.2, 0.4, 0.5, 0.6, 0.8}, Radius: 0.05, MinStep: []float64{0, 0.5, 0, 0, 0}}
	rng := rand.New(rand.NewSource(1))
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			candidatesRef(r, 100, rng)
		}
	})
	b.Run("candidates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Candidates(100, rng)
		}
	})
	b.Run("warm", func(b *testing.B) {
		var rows Rows
		for i := 0; i < b.N; i++ {
			rows.Walk(r, 100, rng)
		}
	})
	b.Run("keep-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Walk(100, rng, 7, 8, nil)
		}
	})
}
