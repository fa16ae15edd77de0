package subspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInitialRegionIsHypercubeAtBest(t *testing.T) {
	a := NewAdapter(3, 1)
	best := []float64{0.2, 0.5, 0.8}
	r := a.Adapt(best, false)
	if r.Kind != Hypercube {
		t.Fatal("initial region must be a hypercube")
	}
	if r.Radius != a.RBase {
		t.Fatalf("initial radius %v, want base %v", r.Radius, a.RBase)
	}
	for i := range best {
		if r.Center[i] != best[i] {
			t.Fatal("center should be θbest")
		}
	}
	// Center is copied, not aliased.
	best[0] = 0.9
	if r.Center[0] == 0.9 {
		t.Fatal("center aliases caller slice")
	}
}

func TestExpandOnConsecutiveSuccess(t *testing.T) {
	a := NewAdapter(2, 1)
	best := []float64{0.5, 0.5}
	a.Adapt(best, false)
	for i := 0; i <= a.EtaSucc; i++ {
		a.Report(true, 0.05)
	}
	r := a.Adapt(best, false)
	if r.Radius != 2*a.RBase {
		t.Fatalf("radius %v after success streak, want doubled %v", r.Radius, 2*a.RBase)
	}
}

func TestShrinkOnConsecutiveFailure(t *testing.T) {
	a := NewAdapter(2, 1)
	a.RBase = 0.2
	best := []float64{0.5, 0.5}
	a.Adapt(best, false)
	for i := 0; i <= a.EtaFail; i++ {
		a.Report(false, 0)
	}
	r := a.Adapt(best, false)
	if r.Radius != 0.1 {
		t.Fatalf("radius %v after failure streak, want halved 0.1", r.Radius)
	}
}

func TestRadiusBounds(t *testing.T) {
	a := NewAdapter(2, 1)
	best := []float64{0.5, 0.5}
	a.Adapt(best, false)
	// Many success streaks: capped at RMax.
	for round := 0; round < 10; round++ {
		for i := 0; i <= a.EtaSucc; i++ {
			a.Report(true, 0.05)
		}
		a.Adapt(best, false)
	}
	if r := a.Region(); r.Kind == Hypercube && r.Radius > a.RMax {
		t.Fatalf("radius %v exceeds RMax", r.Radius)
	}
}

func TestSwitchToLineWhenExhausted(t *testing.T) {
	a := NewAdapter(4, 2)
	best := []float64{0.5, 0.5, 0.5, 0.5}
	a.Adapt(best, false)
	r := a.Adapt(best, true) // safety set exhausted
	if r.Kind != Line {
		t.Fatal("should switch to a line region")
	}
	if math.Abs(mNorm(r.Dir)-1) > 1e-9 {
		t.Fatalf("direction not unit: %v", r.Dir)
	}
	// Line ages out back to a hypercube.
	for i := 0; i < a.LineIters; i++ {
		a.Report(false, 0)
	}
	r = a.Adapt(best, false)
	if r.Kind != Hypercube {
		t.Fatal("line should age back into a hypercube")
	}
}

func mNorm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func TestImportantDirectionOracle(t *testing.T) {
	a := NewAdapter(5, 3)
	a.ImportantAxes = func() []int { return TopAxes([]float64{0, 0, 1, 0, 0}) }
	a.st.PhaseImprove = 1 // exploit branch
	d := a.generateDirection()
	if d[2] != 1 {
		t.Fatalf("important direction should align with knob 2: %v", d)
	}
	// Low improvement: random (not necessarily axis-aligned).
	a.st.PhaseImprove = 0
	d2 := a.generateDirection()
	if math.Abs(mNorm(d2)-1) > 1e-9 {
		t.Fatalf("random direction not unit: %v", d2)
	}
}

func TestHypercubeCandidatesWithinRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := &Region{Kind: Hypercube, Center: []float64{0.5, 0.5}, Radius: 0.1}
	cands := r.Candidates(50, rng)
	if len(cands) != 50 {
		t.Fatalf("%d candidates", len(cands))
	}
	for _, c := range cands {
		if !r.Contains(c) {
			t.Fatalf("candidate %v outside region", c)
		}
	}
	// Center is included.
	if cands[0][0] != 0.5 || cands[0][1] != 0.5 {
		t.Fatal("center missing from candidates")
	}
}

func TestHypercubeCandidatesClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := &Region{Kind: Hypercube, Center: []float64{0.01, 0.99}, Radius: 0.2}
	for _, c := range r.Candidates(80, rng) {
		for _, x := range c {
			if x < 0 || x > 1 {
				t.Fatalf("candidate leaves unit cube: %v", c)
			}
		}
	}
}

func TestLineCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := &Region{Kind: Line, Center: []float64{0.5, 0.5}, Dir: []float64{1, 0}}
	cands := r.Candidates(21, rng)
	if len(cands) != 21 {
		t.Fatalf("%d line candidates", len(cands))
	}
	for _, c := range cands {
		if c[1] != 0.5 {
			t.Fatalf("line candidate off the line: %v", c)
		}
		if c[0] < -1e-9 || c[0] > 1+1e-9 {
			t.Fatalf("line candidate outside cube: %v", c)
		}
	}
	// Spans the full feasible range.
	lo, hi := 1.0, 0.0
	for _, c := range cands {
		lo = math.Min(lo, c[0])
		hi = math.Max(hi, c[0])
	}
	if lo > 0.01 || hi < 0.99 {
		t.Fatalf("line candidates span [%v, %v], want ≈[0,1]", lo, hi)
	}
}

// Property: candidates always stay in the unit cube.
func TestQuickCandidatesInUnitCube(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(6)
		center := make([]float64, dim)
		for i := range center {
			center[i] = rng.Float64()
		}
		var r *Region
		if rng.Intn(2) == 0 {
			r = &Region{Kind: Hypercube, Center: center, Radius: rng.Float64() * 0.5}
		} else {
			d := make([]float64, dim)
			for i := range d {
				d[i] = rng.NormFloat64()
			}
			n := mNorm(d)
			if n == 0 {
				d[0] = 1
				n = 1
			}
			for i := range d {
				d[i] /= n
			}
			r = &Region{Kind: Line, Center: center, Dir: d}
		}
		for _, c := range r.Candidates(30, rng) {
			for _, x := range c {
				if x < -1e-9 || x > 1+1e-9 || math.IsNaN(x) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLineContainsBoundsProjection(t *testing.T) {
	// Axis-aligned line through the center of a 2-D unit square: the
	// feasible segment is α ∈ [-0.5, 0.5].
	r := &Region{Kind: Line, Center: []float64{0.5, 0.5}, Dir: []float64{1, 0}}
	for _, u := range [][]float64{{0.5, 0.5}, {0.0, 0.5}, {1.0, 0.5}, {0.25, 0.5}} {
		if !r.Contains(u) {
			t.Fatalf("%v lies on the feasible segment and must be contained", u)
		}
	}
	// Points on the INFINITE line but outside [0,1]^dim were wrongly
	// accepted before the α-range bound.
	for _, u := range [][]float64{{1.5, 0.5}, {-0.25, 0.5}, {7, 0.5}} {
		if r.Contains(u) {
			t.Fatalf("%v is beyond the feasible segment and must be rejected", u)
		}
	}
	// Off the line entirely: residual beyond the 1e-9 tolerance. The old
	// 1e-6 residual tube was 1000x looser than the hypercube tolerance.
	if r.Contains([]float64{0.5, 0.5 + 1e-7}) {
		t.Fatal("1e-7 residual must exceed the reconciled 1e-9 tolerance")
	}
	if !r.Contains([]float64{0.5 + 1e-10, 0.5}) {
		t.Fatal("sub-tolerance float error along the line must still be contained")
	}
}

func TestLineContainsDiagonal(t *testing.T) {
	s := math.Sqrt(2) / 2
	r := &Region{Kind: Line, Center: []float64{0.2, 0.2}, Dir: []float64{s, s}}
	if !r.Contains([]float64{0.8, 0.8}) {
		t.Fatal("diagonal point inside the cube must be contained")
	}
	if r.Contains([]float64{1.2, 1.2}) {
		t.Fatal("diagonal point outside the cube must be rejected")
	}
}

func TestLineCandidatesAllContained(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		a := NewAdapter(4, int64(trial))
		r := &Region{Kind: Line, Center: []float64{0.3, 0.6, 0.5, 0.4}, Dir: a.generateDirection()}
		for i, c := range r.Candidates(30, rng) {
			if !r.Contains(c) {
				t.Fatalf("trial %d: line candidate %d (%v) not contained in its own region", trial, i, c)
			}
		}
	}
}

func TestPerturbKMovesExactlyKDistinctDims(t *testing.T) {
	const dim, k = 12, 5
	center := make([]float64, dim)
	for i := range center {
		center[i] = 0.5
	}
	r := &Region{Kind: Hypercube, Center: center, Radius: 0.05, PerturbK: k}
	rng := rand.New(rand.NewSource(7))
	cands := r.Candidates(400, rng)
	moved := make([]int, dim)
	for ci, c := range cands[1:] { // cands[0] is the center itself
		n := 0
		for i := range c {
			if c[i] != center[i] {
				moved[i]++
				n++
			}
		}
		// rng.Intn(dim) duplicates used to leave fewer than K moved.
		// (rng.Float64()*2-1 hitting exactly 0 has probability ~0.)
		if n != k {
			t.Fatalf("candidate %d perturbs %d dimensions, want exactly %d", ci+1, n, k)
		}
	}
	// Distinct-K sampling must still cover every dimension over many draws.
	for i, m := range moved {
		if m == 0 {
			t.Fatalf("dimension %d never perturbed across %d candidates", i, len(cands)-1)
		}
	}
}
