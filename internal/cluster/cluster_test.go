package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

// dbscanBrute is the reference O(n²) implementation the cached distance
// matrix is checked against.
func dbscanBrute(points [][]float64, eps float64, minPts int) DBSCANResult {
	return dbscanFrom(&bruteSource{points: points, eps: eps}, minPts)
}

// bruteSource scans every point per query.
type bruteSource struct {
	points [][]float64
	eps    float64
}

func (b *bruteSource) size() int { return len(b.points) }

func (b *bruteSource) neighbors(i int, out []int) []int {
	for j := range b.points {
		if mathx.Dist2(b.points[i], b.points[j]) <= b.eps {
			out = append(out, j)
		}
	}
	return out
}

// twoBlobs returns two well-separated Gaussian blobs.
func twoBlobs(rng *rand.Rand, n int) ([][]float64, []int) {
	pts := make([][]float64, 0, 2*n)
	truth := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		pts = append(pts, []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
		truth = append(truth, 0)
	}
	for i := 0; i < n; i++ {
		pts = append(pts, []float64{5 + rng.NormFloat64()*0.3, 5 + rng.NormFloat64()*0.3})
		truth = append(truth, 1)
	}
	return pts, truth
}

func TestDBSCANSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, truth := twoBlobs(rng, 40)
	res := DBSCAN(pts, 1.0, 4)
	if res.NumClusters != 2 {
		t.Fatalf("found %d clusters, want 2", res.NumClusters)
	}
	// Every pair in the same true blob must share a label.
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if truth[i] == truth[j] && res.Labels[i] != res.Labels[j] {
				t.Fatalf("points %d,%d in same blob got labels %d,%d", i, j, res.Labels[i], res.Labels[j])
			}
			if truth[i] != truth[j] && res.Labels[i] == res.Labels[j] {
				t.Fatalf("points %d,%d in different blobs share label", i, j)
			}
		}
	}
}

func TestDBSCANNoise(t *testing.T) {
	pts := [][]float64{{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1}, {50, 50}}
	res := DBSCAN(pts, 0.5, 3)
	if res.Labels[4] != Noise {
		t.Fatalf("isolated point should be noise, got %d", res.Labels[4])
	}
	res.AssignNearest(pts)
	if res.Labels[4] == Noise {
		t.Fatal("AssignNearest should absorb noise")
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	pts := [][]float64{{0, 0}, {10, 10}, {20, 20}}
	res := DBSCAN(pts, 0.5, 2)
	if res.NumClusters != 0 {
		t.Fatalf("expected no clusters, got %d", res.NumClusters)
	}
	res.AssignNearest(pts)
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatal("all-noise fallback should assign cluster 0")
		}
	}
	if res.NumClusters != 1 {
		t.Fatal("fallback should report one cluster")
	}
}

func TestSuggestEps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts, _ := twoBlobs(rng, 30)
	eps := SuggestEps(pts, 4)
	if eps <= 0 || eps > 5 {
		t.Fatalf("suggested eps = %v implausible", eps)
	}
	res := DBSCAN(pts, eps, 4)
	if res.NumClusters != 2 {
		t.Fatalf("suggested eps yields %d clusters, want 2", res.NumClusters)
	}
	if SuggestEps(nil, 4) <= 0 {
		t.Fatal("degenerate input should return positive eps")
	}
}

func TestMutualInfoIdentical(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	if mi := MutualInfo(a, a); mi < 0.999 {
		t.Fatalf("identical labelings MI = %v, want 1", mi)
	}
	// Permuted label names are still the same clustering.
	b := []int{5, 5, 9, 9, 7, 7}
	if mi := MutualInfo(a, b); mi < 0.999 {
		t.Fatalf("renamed labelings MI = %v, want 1", mi)
	}
}

func TestMutualInfoDissimilar(t *testing.T) {
	a := []int{0, 0, 0, 1, 1, 1}
	b := []int{0, 1, 0, 1, 0, 1} // orthogonal split
	if mi := MutualInfo(a, b); mi > 0.2 {
		t.Fatalf("orthogonal labelings MI = %v, want ≈0", mi)
	}
}

func TestMutualInfoDegenerate(t *testing.T) {
	if MutualInfo(nil, nil) != 0 {
		t.Fatal("empty input should be 0")
	}
	if MutualInfo([]int{1, 2}, []int{1}) != 0 {
		t.Fatal("length mismatch should be 0")
	}
	// Two all-same labelings agree trivially.
	if MutualInfo([]int{3, 3, 3}, []int{8, 8, 8}) != 1 {
		t.Fatal("trivial labelings should agree")
	}
}

// Property: MI is symmetric and within [0,1].
func TestQuickMutualInfoBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(4)
			b[i] = rng.Intn(4)
		}
		ab := MutualInfo(a, b)
		ba := MutualInfo(b, a)
		if ab < 0 || ab > 1 {
			return false
		}
		// Summation order differs with map iteration; allow float slack.
		return math.Abs(ab-ba) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestEpsIsEuclideanRadius pins the eps semantics: eps is an absolute
// Euclidean (L2) distance — mathx.Dist2's "2" is the norm order, not a
// square. The 1.5-apart / eps=2 case discriminates: under
// squared-distance semantics 1.5² = 2.25 > 2 would separate the points.
func TestEpsIsEuclideanRadius(t *testing.T) {
	pair := [][]float64{{0, 0}, {3, 4}} // Euclidean distance exactly 5
	if res := DBSCAN(pair, 5.0, 2); res.NumClusters != 1 {
		t.Fatalf("distance-5 pair with eps=5 should cluster (boundary inclusive), got %d clusters", res.NumClusters)
	}
	if res := DBSCAN(pair, 4.99, 2); res.NumClusters != 0 {
		t.Fatal("distance-5 pair with eps=4.99 should be noise")
	}
	apart := [][]float64{{0, 0}, {1.5, 0}}
	if res := DBSCAN(apart, 2.0, 2); res.NumClusters != 1 {
		t.Fatal("eps compared as squared distance: 1.5-apart points with eps=2 must cluster under Euclidean semantics")
	}
	// The package-level entry point and a caller-held matrix share the
	// same semantics.
	m := NewDistMatrix(apart)
	if res := m.DBSCAN(2.0, 2); res.NumClusters != 1 {
		t.Fatal("DistMatrix.DBSCAN changed eps semantics")
	}
	if d := m.Dist(0, 1); d != 1.5 {
		t.Fatalf("cached distance = %v, want Euclidean 1.5", d)
	}
}

// tiedPoints draws n points in dims dimensions around a few blob
// centers. Some coordinates snap to a 0.25 grid, so distances tie, and
// some points repeat an earlier one, so distances are zero.
func tiedPoints(rng *rand.Rand, n, dims int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		if i > 0 && rng.Intn(8) == 0 {
			pts[i] = pts[rng.Intn(i)]
			continue
		}
		snap := rng.Intn(3) == 0
		p := make([]float64, dims)
		for d := range p {
			p[d] = float64(rng.Intn(3)) + 0.3*rng.NormFloat64()
			if snap {
				p[d] = math.Round(4*p[d]) / 4
			}
		}
		pts[i] = p
	}
	return pts
}

// sameLabels reports whether two clusterings agree label for label.
func sameLabels(a, b DBSCANResult) bool {
	return a.NumClusters == b.NumClusters && slices.Equal(a.Labels, b.Labels)
}

// Property: DBSCAN over the distance index is identical to the
// brute-force reference across dimensions 1–40 (contexts are
// 12-dimensional; knob spaces reach 40) and sizes up to 600, with
// duplicates and tied distances.
func TestQuickMatrixMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{1, 2, 3, 7, 12, 40}[rng.Intn(6)]
		n := 2 + rng.Intn(599)
		pts := tiedPoints(rng, n, dims)
		eps := 0.2 + rng.Float64()
		minPts := 2 + rng.Intn(4)
		return sameLabels(DBSCAN(pts, eps, minPts), dbscanBrute(pts, eps, minPts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: an index extended in chunks of random size produces the
// same k-distances, clustering and noise assignment as the brute-force
// references over the same points — the core re-cluster
// check's reuse contract.
func TestQuickDistMatrixIncremental(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(597)
		pts := tiedPoints(rng, n, 1+rng.Intn(12))
		// Grow in stages, as successive re-cluster checks do; a chunk
		// may span several of Extend's blocks.
		inc := NewDistMatrix(nil)
		for m := 0; m < n; {
			m = min(n, m+1+rng.Intn(150))
			inc.Extend(pts[:m])
		}
		got, want := inc.KDistance(4), kDistanceSorted(pts, 4)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		eps := inc.SuggestEps(4)
		a, b := inc.DBSCAN(eps, 4), dbscanBrute(pts, eps, 4)
		if !sameLabels(a, b) {
			return false
		}
		inc.AssignNearest(&a)
		b.AssignNearest(pts)
		return sameLabels(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The index stays O(n·k) resident: after 3,000 points it holds at most
// nearestKept distances per point, where a pairwise matrix would hold
// 4,498,500.
func TestDistMatrixHeldIsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 3000
	pts := tiedPoints(rng, n, 12)
	m := NewDistMatrix(pts[:n/2])
	m.Extend(pts)
	if held := m.Held(); held > n*nearestKept {
		t.Fatalf("index over %d points holds %d distances, want ≤ %d", n, held, n*nearestKept)
	}
}

func TestKDistanceMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, _ := twoBlobs(rng, 20)
	m := NewDistMatrix(pts)
	if eps := SuggestEps(pts, 4); eps != m.SuggestEps(4) || eps != mathx.Quantile(m.KDistance(4), 0.90) {
		t.Fatalf("SuggestEps = %v, want the 0.90 quantile of the matrix's k-distances", eps)
	}
}

// Property: DBSCAN labels are either Noise or in [0, NumClusters).
func TestQuickDBSCANLabelRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		res := DBSCAN(pts, 0.5+rng.Float64(), 2+rng.Intn(4))
		for _, l := range res.Labels {
			if l != Noise && (l < 0 || l >= res.NumClusters) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// kDistanceSorted is the brute reference for KDistance: measure every
// pair, sort every row of distances in full and take mathx.Quantile.
func kDistanceSorted(pts [][]float64, k int) []float64 {
	out := make([]float64, len(pts))
	for i := range out {
		var ds []float64
		for j := range pts {
			if i != j {
				ds = append(ds, mathx.Dist2(pts[i], pts[j]))
			}
		}
		if len(ds) == 0 {
			continue
		}
		kk := min(k, len(ds))
		out[i] = mathx.Quantile(ds, float64(kk-1)/math.Max(1, float64(len(ds)-1)))
	}
	return out
}

// The kept nearest distances give bit for bit what sorting each row of
// distances does, including where q·(len−1) rounds off k−1; a k beyond
// the kept lists falls back to sorting full rows.
func TestKDistanceBitIdenticalToSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{2, 5, 400} {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), float64(rng.Intn(3))}
		}
		pts[n-1] = pts[0] // a duplicate: zero distances and ties
		m := NewDistMatrix(pts)
		for _, k := range []int{1, 4, n - 1, n + 3} {
			got, want := m.KDistance(k), kDistanceSorted(pts, k)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d k=%d point %d: KDistance %v, sorted reference %v", n, k, i, got[i], want[i])
				}
			}
		}
	}
	if got := NewDistMatrix([][]float64{{1, 2}}).KDistance(4); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single point: KDistance = %v, want [0]", got)
	}
}
