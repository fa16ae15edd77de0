package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/knowledge"
	"repro/internal/rollout"
	"repro/internal/whitebox"
)

// testKB stamps a fixed (engine, space) identity onto a knowledge.Store,
// the way the tune layer's adapter does in production.
type testKB struct {
	store  *knowledge.Store
	engine string
	space  string
}

func (k *testKB) Query(ctx []float64) *knowledge.Advice {
	return k.store.Query(k.engine, k.space, ctx)
}

func (k *testKB) Contribute(ctx []float64, cfg knowledge.SafeConfig, hyper []float64) {
	k.store.Contribute(knowledge.Contribution{
		Engine: k.engine, Space: k.space, Context: ctx, Config: cfg, Hyper: hyper,
	})
}

func (k *testKB) Fleet() bool                             { return true }
func (k *testKB) Refit(fit func() *gp.Refit) *gp.Refit    { fit(); return nil }
func (k *testKB) Recluster(check func() bool)             { check() }
func (k *testKB) Decide(assess func(*Decision) *Decision) { assess(nil) }

func kbFor(space *knobs.Space) (*knowledge.Store, *testKB) {
	s := knowledge.NewStore(knowledge.DefaultParams())
	return s, &testKB{store: s, engine: string(space.Engine.OrMySQL()), space: "case5"}
}

// seededSpaceKB returns a store holding one promoted configuration for
// the given context: the DBA default with the first knob pushed high.
func seededSpaceKB(space *knobs.Space, ctx []float64) (*knowledge.Store, *testKB, []float64) {
	store, kb := kbFor(space)
	good := space.Encode(space.DBADefault())
	good[0] = 0.9
	good = space.Quantize(good)
	kb.Contribute(ctx, knowledge.SafeConfig{Unit: good, Perf: 150, Tau: 100, Promoted: true}, nil)
	return store, kb, good
}

// TestWarmStartStagesTransferOnShadow: with the rollout enabled, a cold
// tuner that finds fleet advice proposes the transferred configuration —
// but only on the canary shadow; the primary keeps the initial safe
// configuration until the comparison window promotes it.
func TestWarmStartStagesTransferOnShadow(t *testing.T) {
	space := knobs.CaseStudy5()
	ctx := []float64{0.2, 0.4}
	store, kb, good := seededSpaceKB(space, ctx)

	opts := DefaultOptions()
	opts.Rollout = &rollout.Policy{}
	opts.Knowledge = kb
	init := space.Encode(space.DBADefault())
	tuner := New(space, len(ctx), init, 1, opts)

	rec := tuner.Recommend(ctx, whitebox.Env{HW: dbsim.DefaultHardware()}, 100)
	if rec.RolloutPhase != string(rollout.PhaseTuning) {
		t.Fatalf("warm start should open a canary, got phase %q kind %q", rec.RolloutPhase, rec.RegionKind)
	}
	if !reflect.DeepEqual(rec.Unit, init) {
		t.Fatalf("primary must keep the initial safe config, got %v", rec.Unit)
	}
	if !reflect.DeepEqual(rec.ShadowUnit, good) {
		t.Fatalf("shadow should stage the transferred config %v, got %v", good, rec.ShadowUnit)
	}
	st := store.Stats()
	if st.Queries != 1 || st.WarmStarts != 1 {
		t.Fatalf("store stats = %+v, want one query, one warm start", st)
	}
}

// TestWarmStartWithoutRolloutNeverAppliesTransfer: with direct apply
// (no canary shadow to absorb a bad transfer) the cold path must stay at
// the initial safe configuration; transfers may only enter through
// assessed candidate rounds.
func TestWarmStartWithoutRolloutNeverAppliesTransfer(t *testing.T) {
	space := knobs.CaseStudy5()
	ctx := []float64{0.2, 0.4}
	_, kb, _ := seededSpaceKB(space, ctx)

	opts := DefaultOptions()
	opts.Knowledge = kb
	init := space.Encode(space.DBADefault())
	tuner := New(space, len(ctx), init, 1, opts)

	rec := tuner.Recommend(ctx, whitebox.Env{HW: dbsim.DefaultHardware()}, 100)
	if !reflect.DeepEqual(rec.Unit, init) {
		t.Fatalf("cold direct-apply tuner must recommend the initial config, got %v (kind %q)",
			rec.Unit, rec.RegionKind)
	}
	if rec.RegionKind == "warm" {
		t.Fatal("direct-apply cold path must not report a warm apply")
	}
}

// TestTransfersRouteThroughAssessment: a store stuffed with extreme
// configurations must not get any of them onto the primary while the
// safety assessment rejects them — the transfer pool feeds candidates,
// not decisions. This is the never-bypass-safety property at the core
// layer.
func TestTransfersRouteThroughAssessment(t *testing.T) {
	space := knobs.CaseStudy5()
	ctx := []float64{0.2, 0.4}
	_, kb := kbFor(space)
	// Hostile fleet: corner configurations claiming absurd performance.
	for i := 0; i < 6; i++ {
		u := make([]float64, space.Dim())
		for j := range u {
			if (i+j)%2 == 0 {
				u[j] = 1
			}
		}
		kb.Contribute(ctx, knowledge.SafeConfig{Unit: u, Perf: 1e9, Tau: 1, Promoted: true}, nil)
	}

	opts := DefaultOptions()
	opts.Epsilon = 0 // pure UCB: deterministic pick
	opts.Knowledge = kb
	init := space.Encode(space.DBADefault())
	tuner := New(space, len(ctx), init, 1, opts)

	// Iterate with a sky-high τ so the assessment can never clear any
	// candidate: every recommendation must be a conservative fallback on
	// a configuration the tuner measured itself (or the initial one).
	applied := map[string]bool{key(space.Quantize(init)): true}
	for i := 0; i < 20; i++ {
		rec := tuner.Recommend(ctx, whitebox.Env{HW: dbsim.DefaultHardware()}, 1e8)
		q := key(space.Quantize(rec.Unit))
		if !rec.Fallback || !applied[q] {
			t.Fatalf("iter %d: unassessed transfer reached the primary: %v (fallback=%v)", i, rec.Unit, rec.Fallback)
		}
		tuner.Observe(i, ctx, rec.Unit, 50, 1e8, false) // unsafe: perf << τ
		applied[q] = true
	}
}

// TestWarmStartDeterministic: two tuners with the same seed and the same
// fleet advice produce identical recommendation streams — the replay
// property the event-sourced session layer depends on.
func TestWarmStartDeterministic(t *testing.T) {
	space := knobs.CaseStudy5()
	ctx := []float64{0.2, 0.4}

	run := func() []Recommendation {
		_, kb, _ := seededSpaceKB(space, ctx)
		opts := DefaultOptions()
		opts.Rollout = &rollout.Policy{Window: 2}
		opts.Knowledge = kb
		init := space.Encode(space.DBADefault())
		tuner := New(space, len(ctx), init, 7, opts)
		var recs []Recommendation
		for i := 0; i < 30; i++ {
			rec := tuner.Recommend(ctx, whitebox.Env{HW: dbsim.DefaultHardware()}, 100)
			recs = append(recs, rec)
			perf := 120 + float64(i%3)
			if rec.RolloutPhase == string(rollout.PhaseTuning) {
				tuner.ObservePair(i, ctx, 110, perf, 100, false, false)
			} else {
				tuner.Observe(i, ctx, rec.Unit, perf, 100, false)
			}
		}
		return recs
	}

	a, b := run(), run()
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("iter %d diverged:\n%+v\nvs\n%+v", i, a[i], b[i])
		}
	}
}

// TestSafeObservationsContribute: safe measurements land in the store,
// unsafe ones don't, and a canary promotion contributes a promoted
// entry.
func TestSafeObservationsContribute(t *testing.T) {
	space := knobs.CaseStudy5()
	ctx := []float64{0.2, 0.4}
	store, kb := kbFor(space)

	opts := DefaultOptions()
	opts.Knowledge = kb
	init := space.Encode(space.DBADefault())
	tuner := New(space, len(ctx), init, 1, opts)

	tuner.Observe(0, ctx, init, 120, 100, false) // safe
	tuner.Observe(1, ctx, init, 80, 100, false)  // unsafe
	tuner.Observe(2, ctx, init, 0, 100, true)    // failed
	if st := store.Stats(); st.Contributions != 1 {
		t.Fatalf("contributions = %d, want exactly the one safe observation", st.Contributions)
	}

	// Promotion path: canary with a winning shadow.
	opts2 := DefaultOptions()
	opts2.Rollout = &rollout.Policy{Window: 2}
	opts2.Knowledge = kb
	tuner2 := New(space, len(ctx), init, 3, opts2)
	before := store.Stats().Contributions
	promoted := false
	for i := 0; i < 40 && !promoted; i++ {
		rec := tuner2.Recommend(ctx, whitebox.Env{HW: dbsim.DefaultHardware()}, 100)
		if rec.RolloutPhase == string(rollout.PhaseTuning) {
			tuner2.ObservePair(i, ctx, 105, 140, 100, false, false)
		} else {
			tuner2.Observe(i, ctx, rec.Unit, 105, 100, false)
		}
		if st := tuner2.RolloutStatus(); st != nil && st.Promotions > 0 {
			promoted = true
		}
	}
	if !promoted {
		t.Fatal("winning shadow never promoted")
	}
	if st := store.Stats(); st.Contributions <= before {
		t.Fatal("promotion did not contribute to the fleet store")
	}
	adv := store.Query(string(space.Engine.OrMySQL()), "case5", ctx)
	if adv == nil {
		t.Fatal("store should answer after contributions")
	}
	foundPromoted := false
	for _, c := range adv.Configs {
		if c.Promoted {
			foundPromoted = true
		}
		for _, v := range c.Unit {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("contributed config out of bounds: %v", c.Unit)
			}
		}
	}
	if !foundPromoted {
		t.Fatal("no promoted entry in fleet advice after a promotion")
	}
}

// TestRepoCapKeepsTunerConsistent: a tiny repository cap forces steady
// eviction; the label ledger must track it and re-clustering must keep
// running off lifetime counts.
func TestRepoCapKeepsTunerConsistent(t *testing.T) {
	space := knobs.CaseStudy5()
	init := space.Encode(space.DBADefault())
	opts := DefaultOptions()
	opts.RepoCap = 30
	opts.MinRecluster = 20
	opts.ReclusterEvery = 10
	tuner := New(space, 2, init, 1, opts)
	for i := 0; i < 100; i++ {
		ctx := []float64{float64(i%4) / 4, 0.5}
		u := append([]float64{}, init...)
		u[0] = float64(i%10) / 10
		tuner.Observe(i, ctx, u, 100+float64(i%7), 90, false)
	}
	st := tuner.Repo.Stats()
	if st.Len != 30 || st.Added != 100 || st.Evicted != 70 {
		t.Fatalf("repo stats = %+v", st)
	}
	if got := len(tuner.labels); got != 30 {
		t.Fatalf("labels = %d, want 30 (aligned with resident observations)", got)
	}
}
