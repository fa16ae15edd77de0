package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKernelSymmetryAndSelf(t *testing.T) {
	kernels := []Kernel{
		NewMatern52(2.0, 0.4),
		NewLinear(0.5, 1.0),
		NewSplit(2, NewMatern52(1, 0.3), NewLinear(0.2, 1)),
	}
	rng := rand.New(rand.NewSource(11))
	for _, k := range kernels {
		for trial := 0; trial < 20; trial++ {
			a := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			b := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			if math.Abs(Eval(k, a, b)-Eval(k, b, a)) > 1e-12 {
				t.Fatalf("%T not symmetric", k)
			}
		}
		// Stationary kernels peak at zero distance.
		a := []float64{0.1, 0.2, 0.3}
		switch k.(type) {
		case *Matern52:
			far := []float64{5, 5, 5}
			if Eval(k, a, a) <= Eval(k, a, far) {
				t.Fatalf("%T should decay with distance", k)
			}
		}
	}
}

func TestKernelParamsRoundTrip(t *testing.T) {
	kernels := []Kernel{
		NewMatern52(2.0, 0.4),
		NewLinear(0.5, 1.0),
		NewSplit(2, NewMatern52(1, 0.3), NewLinear(0.2, 1)),
	}
	for _, k := range kernels {
		p := k.Params()
		c := k.Clone()
		c.SetParams(p)
		a := []float64{0.3, -0.2, 0.9}
		b := []float64{-1.1, 0.4, 0.1}
		if math.Abs(Eval(k, a, b)-Eval(c, a, b)) > 1e-12 {
			t.Fatalf("%T params round-trip changed kernel", k)
		}
		// Clone is independent.
		mod := make([]float64, len(p))
		copy(mod, p)
		mod[0] += 1
		c.SetParams(mod)
		if math.Abs(Eval(k, a, b)-Eval(c, a, b)) < 1e-9 {
			t.Fatalf("%T clone shares state", k)
		}
	}
}

func TestGPInterpolatesTrainingPoints(t *testing.T) {
	g := New(NewMatern52(1, 0.5), 1e-6)
	xs := [][]float64{{0}, {0.3}, {0.7}, {1}}
	ys := []float64{0, 1, -1, 0.5}
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mu, v := g.Predict(x)
		if math.Abs(mu-ys[i]) > 0.05 {
			t.Fatalf("mean at training point %d: %v, want %v", i, mu, ys[i])
		}
		if v < 0 {
			t.Fatalf("negative variance %v", v)
		}
	}
}

func TestGPVarianceGrowsAwayFromData(t *testing.T) {
	g := New(NewMatern52(1, 0.2), 1e-4)
	if err := g.Fit([][]float64{{0.5}}, []float64{3}); err != nil {
		t.Fatal(err)
	}
	_, vNear := g.Predict([]float64{0.5})
	_, vFar := g.Predict([]float64{5})
	if vFar <= vNear {
		t.Fatalf("variance should grow away from data: near=%v far=%v", vNear, vFar)
	}
}

func TestGPPriorBeforeFit(t *testing.T) {
	g := New(NewMatern52(2, 1), 1e-3)
	mu, v := g.Predict([]float64{0.3})
	if mu != 0 {
		t.Fatalf("prior mean = %v", mu)
	}
	if math.Abs(v-2) > 1e-9 {
		t.Fatalf("prior variance = %v, want kernel variance 2", v)
	}
}

func TestGPFitErrors(t *testing.T) {
	g := New(NewMatern52(1, 1), 1e-3)
	if err := g.Fit(nil, nil); err == nil {
		t.Fatal("expected error on empty fit")
	}
	if err := g.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
}

func TestGPAppend(t *testing.T) {
	g := New(NewMatern52(1, 0.5), 1e-5)
	if err := g.Fit([][]float64{{0}}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Append([]float64{1}, 2); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	raw := g.yRaw
	if math.Abs(raw[0]-1) > 1e-9 || math.Abs(raw[1]-2) > 1e-9 {
		t.Fatalf("yRaw = %v", raw)
	}
}

func TestGPRecoverSmoothFunction(t *testing.T) {
	// Fit y = sin(2πx) on a grid, check interpolation error at midpoints.
	f := func(x float64) float64 { return math.Sin(2 * math.Pi * x) }
	var xs [][]float64
	var ys []float64
	for x := 0.0; x <= 1.0001; x += 0.05 {
		xs = append(xs, []float64{x})
		ys = append(ys, f(x))
	}
	g := New(NewMatern52(1, 0.2), 1e-6)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for x := 0.025; x < 1; x += 0.05 {
		mu, _ := g.Predict([]float64{x})
		if math.Abs(mu-f(x)) > 0.05 {
			t.Fatalf("interpolation error at %v: %v vs %v", x, mu, f(x))
		}
	}
}

func TestOptimizeHyperparamsImprovesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 25; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(6*x)+0.05*rng.NormFloat64())
	}
	g := New(NewMatern52(1, 2.0), 0.5) // deliberately bad lengthscale and noise
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	before := g.LogMarginalLikelihood()
	g.OptimizeHyperparams(150)
	after := g.LogMarginalLikelihood()
	if after < before {
		t.Fatalf("hyperparameter optimization decreased likelihood: %v -> %v", before, after)
	}
}

func TestConfidenceBoundsContainMean(t *testing.T) {
	g := New(NewMatern52(1, 0.5), 1e-4)
	if err := g.Fit([][]float64{{0}, {1}}, []float64{0, 2}); err != nil {
		t.Fatal(err)
	}
	lo, hi := g.ConfidenceBounds([]float64{0.5}, 2)
	mu, _ := g.Predict([]float64{0.5})
	if !(lo <= mu && mu <= hi) {
		t.Fatalf("bounds do not bracket mean: [%v, %v] vs %v", lo, hi, mu)
	}
}

func TestContextualGPKnowledgeTransfer(t *testing.T) {
	// Reproduces the Figure 3 scenario: observations at context c=0
	// inform predictions at a nearby context c=0.1 but carry much less
	// information to a distant context c=5 (posterior variance ordering).
	cg := NewContextual(1, 1)
	f := func(th, c float64) float64 { return -(th - 0.5) * (th - 0.5) * 4 * (1 + c) }
	var configs, ctxs [][]float64
	var ys []float64
	for _, th := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		configs = append(configs, []float64{th})
		ctxs = append(ctxs, []float64{0})
		ys = append(ys, f(th, 0))
	}
	if err := cg.Fit(configs, ctxs, ys); err != nil {
		t.Fatal(err)
	}
	_, vNear := cg.Predict([]float64{0.5}, []float64{0.1})
	_, vFar := cg.Predict([]float64{0.5}, []float64{5})
	if vFar <= vNear {
		t.Fatalf("distant context should be more uncertain: near=%v far=%v", vNear, vFar)
	}
	muNear, _ := cg.Predict([]float64{0.5}, []float64{0.1})
	if math.Abs(muNear-f(0.5, 0)) > 1.0 {
		t.Fatalf("nearby context prediction too far off: %v vs %v", muNear, f(0.5, 0))
	}
}

func TestContextualSigma(t *testing.T) {
	cg := NewContextual(1, 1)
	if err := cg.Fit([][]float64{{0.5}}, [][]float64{{0}}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	mu, _ := cg.Predict([]float64{0.2}, []float64{0})
	if lo, hi := cg.Bounds([]float64{0.2}, []float64{0}, 2); !(lo < mu && mu < hi) {
		t.Fatalf("bounds [%v, %v] do not bracket mean %v", lo, hi, mu)
	}
	if cg.Sigma([]float64{0.2}, []float64{0}) <= 0 {
		t.Fatal("sigma should be positive")
	}
}

func TestJoint(t *testing.T) {
	j := Joint([]float64{1, 2}, []float64{3})
	if len(j) != 3 || j[0] != 1 || j[2] != 3 {
		t.Fatalf("Joint = %v", j)
	}
}

func TestObservationsRoundTrip(t *testing.T) {
	cg := NewContextual(2, 2)
	configs := [][]float64{{0.1, 0.2}, {0.3, 0.4}}
	ctxs := [][]float64{{1, 0}, {0, 1}}
	ys := []float64{10, 20}
	if err := cg.Fit(configs, ctxs, ys); err != nil {
		t.Fatal(err)
	}
	gotC, gotX, gotY := cg.Observations()
	if len(gotC) != 2 || gotC[1][1] != 0.4 || gotX[0][0] != 1 {
		t.Fatalf("Observations = %v %v", gotC, gotX)
	}
	if math.Abs(gotY[0]-10) > 1e-9 || math.Abs(gotY[1]-20) > 1e-9 {
		t.Fatalf("Observations y = %v", gotY)
	}
}

// Property: GP posterior variance is non-negative and bounded by prior.
func TestQuickPosteriorVariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = []float64{rng.Float64(), rng.Float64()}
			ys[i] = rng.NormFloat64()
		}
		g := New(NewMatern52(1, 0.5), 1e-4)
		if err := g.Fit(xs, ys); err != nil {
			return true // degenerate fit is allowed to fail
		}
		for trial := 0; trial < 10; trial++ {
			x := []float64{rng.Float64() * 2, rng.Float64() * 2}
			_, v := g.Predict(x)
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
