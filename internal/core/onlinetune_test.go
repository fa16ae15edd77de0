package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dbsim"
	"repro/internal/featurize"
	"repro/internal/knobs"
	"repro/internal/whitebox"
	"repro/internal/workload"
)

// runTuning drives OnlineTune against the simulator for iters iterations
// of the given generator and returns (cumTuned, cumDBA, unsafe, failures).
func runTuning(t *testing.T, space *knobs.Space, gen workload.Generator, iters int, opts Options) (float64, float64, int, int) {
	t.Helper()
	in := dbsim.New(space, 7)
	feat := featurize.New(3)
	feat.Pretrain([]workload.Generator{gen}, 2)
	tuner := New(space, feat.Dim(), space.Encode(space.DBADefault()), 11, opts)

	var cumTuned, cumDBA float64
	unsafe, failures := 0, 0
	var lastMetrics dbsim.InternalMetrics
	for i := 0; i < iters; i++ {
		w := gen.At(i)
		ctx := feat.Context(w, in.OptimizerStats(w))
		dba := in.DBAResult(w)
		tau := dba.Objective(w.OLAP)
		env := whitebox.Env{HW: in.HW, Load: w, Metrics: lastMetrics}

		rec := tuner.Recommend(ctx, env, tau)
		res := in.Eval(rec.Config, w, dbsim.EvalOptions{})
		perf := res.Objective(w.OLAP)
		tuner.Observe(i, ctx, rec.Unit, perf, tau, res.Failed)

		lastMetrics = res.Metrics
		cumTuned += perf
		cumDBA += tau
		if res.Failed {
			failures++
		}
		if res.Failed || perf < tau-0.05*math.Abs(tau) {
			unsafe++
		}
	}
	return cumTuned, cumDBA, unsafe, failures
}

func TestOnlineTuneImprovesAndStaysSafeYCSB(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	space := knobs.CaseStudy5()
	gen := workload.NewYCSB(5)
	tuned, dba, unsafe, failures := runTuning(t, space, gen, 150, DefaultOptions())
	if failures != 0 {
		t.Fatalf("OnlineTune caused %d system failures", failures)
	}
	if frac := float64(unsafe) / 150; frac > 0.15 {
		t.Fatalf("unsafe fraction %.0f%%, want ≤ 15%%", frac*100)
	}
	if tuned < dba*0.99 {
		t.Fatalf("cumulative tuned %v below DBA default %v", tuned, dba)
	}
}

func TestOnlineTuneDynamicTPCC(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	space := knobs.MySQL57()
	gen := workload.NewTPCC(2, true)
	opts := DefaultOptions()
	opts.Candidates = 60
	tuned, dba, unsafe, failures := runTuning(t, space, gen, 80, opts)
	if failures != 0 {
		t.Fatalf("%d failures on the 40-knob space", failures)
	}
	if frac := float64(unsafe) / 80; frac > 0.2 {
		t.Fatalf("unsafe fraction %.0f%% on TPC-C", frac*100)
	}
	if tuned < dba*0.97 {
		t.Fatalf("cumulative tuned %v well below DBA %v", tuned, dba)
	}
}

func TestColdStartRecommendsInitialSafe(t *testing.T) {
	space := knobs.CaseStudy5()
	init := space.Encode(space.DBADefault())
	tuner := New(space, 3, init, 1, DefaultOptions())
	rec := tuner.Recommend([]float64{0, 0, 0}, whitebox.Env{HW: dbsim.DefaultHardware()}, 100)
	if !rec.Fallback {
		t.Fatal("cold tuner should fall back to the initial safety set")
	}
	for i := range init {
		if rec.Unit[i] != init[i] {
			t.Fatal("cold recommendation should be the initial safe config")
		}
	}
}

func TestExpectedImprovementColdModel(t *testing.T) {
	space := knobs.CaseStudy5()
	o := New(space, 2, space.Encode(space.DBADefault()), 1, DefaultOptions())
	ei := o.ExpectedImprovementOver([]float64{0, 0}, space.Encode(space.DBADefault()))
	if ei <= 0 {
		t.Fatal("cold model should always trigger configuring")
	}
}

func TestObserveTracksBest(t *testing.T) {
	space := knobs.CaseStudy5()
	init := space.Encode(space.DBADefault())
	tuner := New(space, 2, init, 1, DefaultOptions())
	ctx := []float64{0.1, 0.2}
	u1 := space.Encode(space.DBADefault())
	tuner.Observe(0, ctx, u1, 100, 90, false)
	u2 := append([]float64{}, u1...)
	u2[0] = 0.9
	tuner.Observe(1, ctx, u2, 150, 90, false)
	best, perf := tuner.Best()
	if perf != 150 || best[0] != 0.9 {
		t.Fatalf("best not tracked: %v %v", best, perf)
	}
	// An unsafe high observation must not become the center.
	u3 := append([]float64{}, u1...)
	u3[1] = 0.9
	tuner.Observe(2, ctx, u3, 200, 300, false) // perf < tau: unsafe
	_, perf = tuner.Best()
	if perf != 150 {
		t.Fatalf("unsafe observation replaced best: %v", perf)
	}
}

func TestFailureObservationPenalized(t *testing.T) {
	space := knobs.CaseStudy5()
	init := space.Encode(space.DBADefault())
	tuner := New(space, 1, init, 1, DefaultOptions())
	ctx := []float64{0}
	bad := append([]float64{}, init...)
	bad[0] = 1.0
	tuner.Observe(0, ctx, init, 100, 90, false)
	tuner.Observe(1, ctx, bad, 0, 90, true) // hang
	// The exact failed configuration must never be recommended again:
	// its posterior target sits far below τ, so its LCB cannot clear the
	// threshold.
	env := whitebox.Env{HW: dbsim.DefaultHardware(), Load: workload.NewYCSB(1).At(0)}
	badQ := space.Quantize(bad)
	for i := 0; i < 10; i++ {
		rec := tuner.Recommend(ctx, env, 90)
		same := true
		for d := range badQ {
			if math.Abs(rec.Unit[d]-badQ[d]) > 0.02 {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("re-recommended the failed configuration: %v", rec.Unit)
		}
		tuner.Observe(2+i, ctx, rec.Unit, 100, 90, false)
	}
}

func TestReclusteringCreatesModels(t *testing.T) {
	space := knobs.CaseStudy5()
	init := space.Encode(space.DBADefault())
	opts := DefaultOptions()
	opts.MinRecluster = 40
	opts.ReclusterEvery = 20
	tuner := New(space, 2, init, 1, opts)
	// Two context regimes far apart: observations alternate blocks.
	for i := 0; i < 60; i++ {
		ctx := []float64{0, 0}
		if (i/15)%2 == 1 {
			ctx = []float64{5, 5}
		}
		u := append([]float64{}, init...)
		u[0] = float64(i%10) / 10
		tuner.Observe(i, ctx, u, 100+float64(i%7), 90, false)
	}
	if tuner.NumModels() < 2 {
		t.Fatalf("two context regimes should yield ≥ 2 models, got %d", tuner.NumModels())
	}
	// The classifier routes contexts to different models.
	a := tuner.selectModel([]float64{0, 0})
	b := tuner.selectModel([]float64{5, 5})
	if a == b {
		t.Fatal("distinct contexts should select distinct models")
	}
}

// observeRegimes feeds a tuner n observations whose 3-dimensional
// contexts rotate through three regimes in blocks of 20, so the
// clustering of any window of contexts depends on where it starts.
// after runs after every observation with the lifetime count.
func observeRegimes(tuner *OnlineTune, n int, after func(added int)) {
	rng := rand.New(rand.NewSource(5))
	init := tuner.Space.Encode(tuner.Space.DBADefault())
	for i := range n {
		c := float64((i/20)%3) * 5
		ctx := []float64{c + 0.3*rng.NormFloat64(), c + 0.3*rng.NormFloat64(), 0.3 * rng.NormFloat64()}
		u := slices.Clone(init)
		u[0] = float64(i%10) / 10
		tuner.Observe(i, ctx, u, 100+float64(i%7), 90, false)
		after(i + 1)
	}
}

// The re-cluster check's index describes the resident contexts at every
// check, also once a small repository cap evicts on every add: its eps,
// clusters and noise assignment equal a from-scratch DBSCAN over
// Repo.Contexts().
func TestReclusterIndexMatchesFromScratch(t *testing.T) {
	opts := DefaultOptions()
	opts.RepoCap = 64
	space := knobs.CaseStudy5()
	tuner := New(space, 3, space.Encode(space.DBADefault()), 1, opts)
	checks := 0
	observeRegimes(tuner, 300, func(added int) {
		if added < opts.MinRecluster || added%opts.ReclusterEvery != 0 {
			return
		}
		checks++
		ctxs := tuner.Repo.Contexts()
		eps := cluster.SuggestEps(ctxs, 4)
		want := cluster.DBSCAN(ctxs, eps, 4)
		want.AssignNearest(ctxs)
		m := tuner.reclusterIdx
		got := m.DBSCAN(m.SuggestEps(4), 4)
		m.AssignNearest(&got)
		if m.SuggestEps(4) != eps || got.NumClusters != want.NumClusters || !slices.Equal(got.Labels, want.Labels) {
			t.Fatalf("check at %d observations: index labels %v (eps %v), from scratch %v (eps %v)",
				added, got.Labels, m.SuggestEps(4), want.Labels, eps)
		}
	})
	if checks != 11 {
		t.Fatalf("%d re-cluster checks, want 11", checks)
	}
}

// The re-cluster index stays O(n·k): after 1,000 observations it holds
// at most 5 distances per context, where a pairwise matrix held 499,500.
func TestReclusterIndexIsLinear(t *testing.T) {
	space := knobs.CaseStudy5()
	tuner := New(space, 3, space.Encode(space.DBADefault()), 1, DefaultOptions())
	observeRegimes(tuner, 1000, func(int) {})
	if n, held := tuner.reclusterIdx.Len(), tuner.reclusterIdx.Held(); n != 1000 || held > 5*n {
		t.Fatalf("index over %d contexts holds %d distances, want 1000 contexts and ≤ %d", n, held, 5*n)
	}
}

func TestRecommendationWithinSpace(t *testing.T) {
	space := knobs.CaseStudy5()
	init := space.Encode(space.DBADefault())
	tuner := New(space, 1, init, 3, DefaultOptions())
	ctx := []float64{0.5}
	env := whitebox.Env{HW: dbsim.DefaultHardware(), Load: workload.NewYCSB(1).At(0)}
	tuner.Observe(0, ctx, init, 100, 90, false)
	for i := 0; i < 20; i++ {
		rec := tuner.Recommend(ctx, env, 90)
		if len(rec.Unit) != space.Dim() {
			t.Fatalf("unit dim %d", len(rec.Unit))
		}
		for _, k := range space.Knobs {
			v := rec.Config[k.Name]
			if k.ClampRaw(v) != v {
				t.Fatalf("knob %s out of domain: %v", k.Name, v)
			}
		}
		tuner.Observe(1+i, ctx, rec.Unit, 100, 90, false)
	}
}
