package core

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/rollout"
	"repro/internal/subspace"
	"repro/internal/whitebox"
	"repro/internal/workload"
)

// sameRec compares what a recommendation carries; the ignored rule is
// compared by name, since each tuner has its own rule engine.
func sameRec(a, b Recommendation) bool {
	ra, rb := a.IgnoredRule, b.IgnoredRule
	return slices.Equal(a.Unit, b.Unit) && slices.Equal(a.ShadowUnit, b.ShadowUnit) &&
		a.Boundary == b.Boundary && a.Fallback == b.Fallback && a.SafetySetSize == b.SafetySetSize &&
		a.ModelIndex == b.ModelIndex && a.RegionKind == b.RegionKind && a.WhiteBoxVetoes == b.WhiteBoxVetoes &&
		a.RolloutPhase == b.RolloutPhase && (ra == nil) == (rb == nil) && (ra == nil || ra.Name == rb.Name)
}

// TestStateRoundTripContinuesBitIdentical: a tuner rebuilt from its
// exported state, through JSON, every 13 intervals recommends exactly
// what an uninterrupted tuner does and exports the same bytes — across
// re-clustering into several models with an SVM boundary, hyperparameter
// searches, unsafe cool-downs and canary windows.
func TestStateRoundTripContinuesBitIdentical(t *testing.T) {
	space := knobs.CaseStudy5()
	init := space.Encode(space.DBADefault())
	opts := DefaultOptions()
	opts.MinRecluster, opts.ReclusterEvery, opts.HyperoptEvery = 30, 15, 10
	opts.Rollout = &rollout.Policy{Window: 2}
	build := func() *OnlineTune { return New(space, 2, init, 5, opts) }
	live := build()
	var restored *OnlineTune
	env := whitebox.Env{HW: dbsim.DefaultHardware(), Load: workload.NewTPCC(1, false).At(0)}
	for i := 0; i < 140; i++ {
		if i%13 == 0 {
			data, err := json.Marshal(live.State())
			if err != nil {
				t.Fatal(err)
			}
			var st State
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			restored = build()
			if err := restored.SetState(st, i); err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
			again, err := json.Marshal(restored.State())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("iter %d: restored tuner exports a different state", i)
			}
		}
		ctx := []float64{4 * float64((i/20)%2), 0.1 * float64(i%3)}
		const tau = 100.0
		a, b := live.Recommend(ctx, env, tau), restored.Recommend(ctx, env, tau)
		if !sameRec(a, b) {
			t.Fatalf("iter %d: recommendations diverged\nlive:     %+v\nrestored: %+v", i, a, b)
		}
		perf := tau * (1 + 0.04*math.Sin(float64(i)) + 0.1*a.Unit[0])
		failed := i%17 == 16
		for _, o := range []*OnlineTune{live, restored} {
			if o.RolloutPhase() == rollout.PhaseTuning {
				o.ObservePair(i, ctx, perf, perf*1.02, tau, false, failed)
			} else {
				o.Observe(i, ctx, a.Unit, perf, tau, failed)
			}
		}
	}
	if live.NumModels() < 2 || live.classifier == nil || live.RolloutStatus().Promotions+live.RolloutStatus().Rollbacks == 0 {
		t.Fatalf("run covered too little: %d models, classifier %v, rollout %+v", live.NumModels(), live.classifier != nil, live.RolloutStatus())
	}
}

// TestSetStateRejectsHostileState: damaged states are errors, never
// panics.
func TestSetStateRejectsHostileState(t *testing.T) {
	space := knobs.CaseStudy5()
	init := space.Encode(space.DBADefault())
	build := func() *OnlineTune { return New(space, 2, init, 5, DefaultOptions()) }
	live := build()
	for i := 0; i < 8; i++ {
		live.Observe(i, []float64{0.1 * float64(i), 0}, init, 100+float64(i), 90, false)
	}
	for name, damage := range map[string]func(st *State){
		"no models":          func(st *State) { st.Models = nil },
		"short unit":         func(st *State) { st.Repo.Obs[2].Unit = st.Repo.Obs[2].Unit[1:] },
		"short model unit":   func(st *State) { st.Models[0].Units[1] = st.Models[0].Units[1][1:] },
		"label out of range": func(st *State) { st.Labels[3] = 7 },
		"negative draws":     func(st *State) { st.Draws = -1 },
		"unknown rule":       func(st *State) { st.PendingRule = "no-such-rule" },
		"bad evaluated key":  func(st *State) { st.Models[0].Evaluated = []string{"zz"} },
		"counters":           func(st *State) { st.Repo.Added++ },
		"rollout mismatch":   func(st *State) { st.Rollout = &rollout.State{} },
		"region kind":        func(st *State) { st.Models[0].Adapter.Region = &subspace.Region{Kind: 9, Center: init} },
	} {
		data, err := json.Marshal(live.State())
		if err != nil {
			t.Fatal(err)
		}
		var st State
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		damage(&st)
		if err := build().SetState(st, 8); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
