package core

import (
	"testing"

	"repro/internal/dbsim"
	"repro/internal/featurize"
	"repro/internal/knobs"
	"repro/internal/whitebox"
	"repro/internal/workload"
)

func TestStoppingTunerPausesOnConvergence(t *testing.T) {
	space := knobs.CaseStudy5()
	gen := &workload.YCSB{Seed: 1, ReadRatioAt: func(int) float64 { return 0.75 }}
	in := dbsim.New(space, 7)
	feat := featurize.New(3)
	feat.Pretrain([]workload.Generator{gen}, 2)
	base := New(space, feat.Dim(), space.Encode(space.DBADefault()), 11, DefaultOptions())
	st := NewStoppingTuner(base, 0.05, 4)

	var lastM dbsim.InternalMetrics
	pausedIters := 0
	for i := 0; i < 120; i++ {
		w := gen.At(i)
		ctx := feat.Context(w, in.OptimizerStats(w))
		dba := in.DBAResult(w)
		tau := dba.Objective(false)
		rec := st.Recommend(ctx, whitebox.Env{HW: in.HW, Load: w, Metrics: lastM}, tau)
		res := in.Eval(rec.Config, w, dbsim.EvalOptions{})
		st.Observe(i, ctx, rec.Unit, res.Objective(false), tau, res.Failed)
		lastM = res.Metrics
		if st.Paused() {
			pausedIters++
		}
	}
	// On a static workload the tuner should converge and spend a
	// meaningful share of the run paused.
	if pausedIters < 10 {
		t.Fatalf("stopping mechanism never engaged (%d paused iterations)", pausedIters)
	}
	if st.ChangeCount >= 120 {
		t.Fatal("configuration changed every iteration despite pausing")
	}
	if st.PauseCount+st.ChangeCount != 120 {
		t.Fatalf("accounting broken: %d + %d != 120", st.PauseCount, st.ChangeCount)
	}
}

func TestStoppingTunerRetriggersOnContextShift(t *testing.T) {
	space := knobs.CaseStudy5()
	in := dbsim.New(space, 7)
	readA := &workload.YCSB{Seed: 1, ReadRatioAt: func(int) float64 { return 1.0 }}
	readB := &workload.YCSB{Seed: 1, ReadRatioAt: func(int) float64 { return 0.4 }}
	feat := featurize.New(3)
	feat.Pretrain([]workload.Generator{readA, readB}, 2)
	base := New(space, feat.Dim(), space.Encode(space.DBADefault()), 11, DefaultOptions())
	st := NewStoppingTuner(base, 0.02, 4)

	var lastM dbsim.InternalMetrics
	step := func(i int, gen workload.Generator) {
		w := gen.At(i)
		ctx := feat.Context(w, in.OptimizerStats(w))
		dba := in.DBAResult(w)
		tau := dba.Objective(false)
		rec := st.Recommend(ctx, whitebox.Env{HW: in.HW, Load: w, Metrics: lastM}, tau)
		res := in.Eval(rec.Config, w, dbsim.EvalOptions{})
		st.Observe(i, ctx, rec.Unit, res.Objective(false), tau, res.Failed)
		lastM = res.Metrics
	}
	for i := 0; i < 80; i++ {
		step(i, readA)
	}
	changesBefore := st.ChangeCount
	// Shift the workload hard: the read-heavy optimum no longer fits.
	for i := 80; i < 120; i++ {
		step(i, readB)
	}
	if st.ChangeCount == changesBefore {
		t.Fatal("context shift should re-trigger configuring")
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

func TestStoppingResumesAfterUnsafe(t *testing.T) {
	space := knobs.CaseStudy5()
	base := New(space, 1, space.Encode(space.DBADefault()), 1, DefaultOptions())
	st := NewStoppingTuner(base, 0.02, 1)
	st.Holding = true
	st.Applied = space.Encode(space.DBADefault())
	st.Observe(0, []float64{0}, st.Applied, 50, 100, false) // unsafe: perf < τ
	if st.Paused() {
		t.Fatal("unsafe observation must resume configuring")
	}
}
