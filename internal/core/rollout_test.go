package core

import (
	"math"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/featurize"
	"repro/internal/knobs"
	"repro/internal/rollout"
	"repro/internal/whitebox"
	"repro/internal/workload"
)

// TestRolloutStagesEveryNewConfig drives a rollout-enabled tuner against
// primary and shadow simulator replicas and asserts the operational
// guarantee: the primary only ever runs the last-good configuration or a
// configuration that survived a full comparison window on the shadow.
func TestRolloutStagesEveryNewConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	space := knobs.CaseStudy5()
	gen := workload.NewYCSB(5)
	in := dbsim.New(space, 7)
	shadow := dbsim.New(space, 1007)
	feat := featurize.New(3)
	feat.Pretrain([]workload.Generator{gen}, 2)

	opts := DefaultOptions()
	opts.Rollout = &rollout.Policy{}
	initial := space.Encode(space.DBADefault())
	tuner := New(space, feat.Dim(), initial, 11, opts)

	promoted := map[string]bool{key(initial): true}
	var lastMetrics dbsim.InternalMetrics
	const iters = 150
	for i := 0; i < iters; i++ {
		w := gen.At(i)
		ctx := feat.Context(w, in.OptimizerStats(w))
		dba := in.DBAResult(w)
		tau := dba.Objective(w.OLAP)
		env := whitebox.Env{HW: in.HW, Load: w, Metrics: lastMetrics}

		rec := tuner.Recommend(ctx, env, tau)
		if !promoted[key(rec.Unit)] {
			t.Fatalf("iter %d: primary received configuration %v that was never promoted (phase %q)",
				i, rec.Unit, rec.RolloutPhase)
		}
		res := in.Eval(rec.Config, w, dbsim.EvalOptions{})
		perf := res.Objective(w.OLAP)
		if rec.RolloutPhase == string(rollout.PhaseTuning) {
			if rec.ShadowUnit == nil || rec.ShadowConfig == nil {
				t.Fatalf("iter %d: tuning phase without a staged shadow configuration", i)
			}
			sres := shadow.Eval(rec.ShadowConfig, w, dbsim.EvalOptions{})
			tuner.ObservePair(i, ctx, perf, sres.Objective(w.OLAP), tau, res.Failed, sres.Failed)
		} else {
			if rec.RolloutPhase != string(rollout.PhaseSteady) {
				t.Fatalf("iter %d: unexpected rollout phase %q", i, rec.RolloutPhase)
			}
			tuner.Observe(i, ctx, rec.Unit, perf, tau, res.Failed)
		}
		// Whatever the controller has promoted by now may legally run on
		// the primary in later intervals.
		if st := tuner.RolloutStatus(); st != nil {
			promoted[key(st.LastGood)] = true
		}
		lastMetrics = res.Metrics
	}

	st := tuner.RolloutStatus()
	if st == nil {
		t.Fatal("rollout enabled but no status")
	}
	if st.Promotions == 0 {
		t.Fatal("150 iterations on YCSB should promote at least one candidate")
	}
	if st.Promotions > 0 && st.LastEvent == nil {
		t.Fatal("decisions recorded but no last event")
	}
}

// TestRolloutBlocksRegressingCandidate forces a canary whose shadow
// measurements regress and asserts the rollback path: the candidate
// never reaches the primary and the provenance records the decision.
func TestRolloutBlocksRegressingCandidate(t *testing.T) {
	space := knobs.CaseStudy5()
	feat := featurize.New(3)
	gen := workload.NewYCSB(5)
	feat.Pretrain([]workload.Generator{gen}, 2)
	opts := DefaultOptions()
	opts.Rollout = &rollout.Policy{Window: 2}
	initial := space.Encode(space.DBADefault())
	tuner := New(space, feat.Dim(), initial, 3, opts)

	w := gen.At(0)
	ctx := feat.Context(w, dbsim.New(space, 7).OptimizerStats(w))
	env := whitebox.Env{HW: dbsim.DefaultHardware(), Load: w}
	const tau = 90.0

	// Warm the model at the initial configuration so Recommend leaves
	// the cold/probe path and eventually proposes something new (the
	// perf wiggle keeps the GP's posterior non-degenerate).
	i := 0
	for ; i < 80; i++ {
		rec := tuner.Recommend(ctx, env, tau)
		if rec.RolloutPhase == string(rollout.PhaseTuning) {
			break
		}
		tuner.Observe(i, ctx, rec.Unit, 105+float64(i%5), tau, false)
	}
	rec := tuner.LastRecommendation()
	if rec.RolloutPhase != string(rollout.PhaseTuning) {
		t.Fatalf("tuner never started a canary in %d iterations", i)
	}
	cand := append([]float64(nil), rec.ShadowUnit...)

	// The shadow regresses hard in both window intervals.
	tuner.ObservePair(i, ctx, 105, 60, tau, false, false)
	rec2 := tuner.Recommend(ctx, env, tau)
	if rec2.RolloutPhase != string(rollout.PhaseTuning) || rec2.RegionKind != "hold" {
		t.Fatalf("mid-window recommendation should hold the canary, got phase %q kind %q", rec2.RolloutPhase, rec2.RegionKind)
	}
	tuner.ObservePair(i+1, ctx, 105, 60, tau, false, false)

	st := tuner.RolloutStatus()
	if st.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", st.Rollbacks)
	}
	if st.LastEvent == nil || st.LastEvent.Kind != rollout.EventRollback {
		t.Fatalf("rollback provenance missing: %+v", st.LastEvent)
	}
	if !vecEq(st.LastEvent.Candidate, cand) {
		t.Fatalf("provenance candidate %v != staged %v", st.LastEvent.Candidate, cand)
	}
	if vecEq(st.LastGood, cand) {
		t.Fatal("rolled-back candidate became last-good")
	}
	// The regressing shadow measurements must still have taught the
	// model: the candidate is marked evaluated and the observation count
	// advanced (learning survives the rollback).
	if got := tuner.Repo.Len(); got != i+2 {
		t.Fatalf("repository holds %d observations, want %d (shadow measurements must feed the model)", got, i+2)
	}
}

func vecEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

// TestPendingRuleDeferredDuringCanary pins the rule-outcome attribution
// fix: a bypassed white-box rule belongs to the staged CANDIDATE, so a
// plain primary observation during the canary (a report that arrived
// without a shadow measurement) must NOT resolve it; the shadow
// measurement via ObservePair must.
func TestPendingRuleDeferredDuringCanary(t *testing.T) {
	space := knobs.CaseStudy5()
	opts := DefaultOptions()
	opts.Rollout = &rollout.Policy{Window: 2}
	initial := space.Encode(space.DBADefault())
	tuner := New(space, 3, initial, 3, opts)
	ctx := []float64{0, 0, 0}

	// Stage a canary directly and attach a pending bypassed rule, as
	// Recommend would after a conflict relaxation at canary start.
	cand := append([]float64(nil), initial...)
	cand[0] = 0.9
	tuner.roll.Submit(cand)
	rule := tuner.White.Rules[0]
	tuner.pendingRule = rule

	// A plain primary observation (no shadow) must keep it pending.
	tuner.Observe(0, ctx, initial, 105, 100, false)
	if tuner.pendingRule == nil {
		t.Fatal("primary observation of last-good resolved a rule bypassed by the candidate")
	}
	// The candidate's shadow measurement resolves it.
	tuner.ObservePair(1, ctx, 105, 104, 100, false, false)
	if tuner.pendingRule != nil {
		t.Fatal("shadow measurement of the candidate must resolve the pending rule")
	}
}

// TestMisroutedPairTakesObservePath: a pair reported while no candidate
// is staged is the primary's measurement alone, so it runs Observe's
// path — a bluegreen switchover interval drains into the cost
// accounting and, being a cache-cold sample, stays out of the model.
func TestMisroutedPairTakesObservePath(t *testing.T) {
	space := knobs.CaseStudy5()
	opts := DefaultOptions()
	opts.Rollout = &rollout.Policy{Mode: rollout.ModeBlueGreen, Window: 1}
	initial := space.Encode(space.DBADefault())
	tuner := New(space, 3, initial, 3, opts)
	ctx := []float64{0, 0, 0}

	cand := append([]float64(nil), initial...)
	cand[0] = 0.9
	tuner.roll.Submit(cand)
	tuner.ObservePair(0, ctx, 105, 110, 100, false, false)
	if rec := tuner.Recommend(ctx, whitebox.Env{}, 100); rec.RolloutPhase != string(rollout.PhaseSwitchover) {
		t.Fatalf("phase after a bluegreen promote = %q, want switchover", rec.RolloutPhase)
	}
	before := tuner.Repo.Len()
	tuner.ObservePair(1, ctx, 50, 0, 100, false, false)
	st := tuner.RolloutStatus()
	if st.Phase != rollout.PhaseSteady || st.Metrics.Switchovers != 1 || st.Metrics.SwitchoverDowntime.Sum != 1 {
		t.Fatalf("mis-routed pair skipped the switchover accounting: phase %q metrics %+v", st.Phase, st.Metrics)
	}
	if got := tuner.Repo.Len(); got != before {
		t.Fatalf("the cold switchover sample fed the model: %d observations, want %d", got, before)
	}
}
