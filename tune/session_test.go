package tune

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/workload"
)

// driveSession runs a session for iters intervals against the simulated
// instance, returning the per-interval advice.
func driveSession(t *testing.T, s *Session, space *knobs.Space, gen workload.Generator, iters int, simSeed int64) []Advice {
	t.Helper()
	in := dbsim.New(space, simSeed)
	out := make([]Advice, 0, iters)
	for i := 0; i < iters; i++ {
		adv, err := s.Suggest(context.Background())
		if err != nil {
			t.Fatalf("iter %d: Suggest: %v", i, err)
		}
		out = append(out, adv)
		w := gen.At(i)
		res := in.Eval(adv.Config, w, dbsim.EvalOptions{})
		dba := in.DBAResult(w)
		if err := s.Report(Outcome{
			Workload:    WorkloadFromSnapshot(w),
			Stats:       in.OptimizerStats(w),
			Metrics:     res.Metrics,
			Performance: res.Objective(w.OLAP),
			Baseline:    dba.Objective(w.OLAP),
			Failed:      res.Failed,
		}); err != nil {
			t.Fatalf("iter %d: Report: %v", i, err)
		}
	}
	return out
}

func TestSessionSuggestReportRoundTrip(t *testing.T) {
	s, err := NewSession(Config{Space: "case5", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	advices := driveSession(t, s, knobs.CaseStudy5(), workload.NewYCSB(1), 60, 1)
	if s.Iter() != 60 {
		t.Fatalf("session at iter %d after 60 reports", s.Iter())
	}

	// The first advice precedes any observation: it must fall back to
	// the initial safe configuration.
	first := advices[0]
	if !first.Fallback || first.RegionKind != "init" {
		t.Fatalf("first advice should be the initial fallback, got %+v", first)
	}
	dba := knobs.CaseStudy5().DBADefault()
	for name, v := range first.Config {
		if math.Abs(dba[name]-v) > 1e-9 {
			t.Fatalf("first advice sets %s=%v, DBA default is %v", name, v, dba[name])
		}
	}

	// Later advice carries the safety provenance of a warm tuner.
	warm := advices[len(advices)-1]
	if warm.RegionKind == "" {
		t.Fatal("warm advice missing region kind")
	}
	// The black-box safety set stays empty while the GP is uncertain
	// and opens up once enough observations accumulate (~iteration 50
	// on this workload).
	sawSafetySet := false
	for _, a := range advices {
		if a.SafetySetSize > 0 {
			sawSafetySet = true
		}
	}
	if !sawSafetySet {
		t.Fatal("no advice ever reported a non-empty safety set")
	}

	// The session learned a best configuration.
	if _, perf, ok := s.Best(); !ok || perf <= 0 {
		t.Fatalf("Best() = %v, %v after 60 safe-threshold intervals", perf, ok)
	}

	// The underlying repository recorded every observation.
	if obs := s.exportLocked().Observations; obs != 60 {
		t.Fatalf("repository holds %d observations", obs)
	}
}

func TestSessionComputesEI(t *testing.T) {
	s, err := NewSession(Config{Space: "case5", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	advices := driveSession(t, s, knobs.CaseStudy5(), workload.NewYCSB(3), 20, 3)
	sawEI := false
	for _, a := range advices {
		if a.HasEI {
			sawEI = true
			if math.IsNaN(a.EI) || math.IsInf(a.EI, 0) || a.EI < 0 {
				t.Fatalf("bad EI %v", a.EI)
			}
		}
	}
	if !sawEI {
		t.Fatal("no advice carried an Expected Improvement")
	}
}

func TestOpenRejectsUnknownNames(t *testing.T) {
	if _, err := NewSession(Config{Space: "nope"}); err == nil {
		t.Fatal("unknown space accepted")
	}
	if _, err := NewSession(Config{Initial: KnobConfig{"not_a_knob": 1}}); err == nil {
		t.Fatal("unknown initial knob accepted")
	}
}

// TestSessionDetachedFromCallerBuffers pins the no-aliasing contract:
// mutating a reported Outcome's statement buffer or a returned Advice
// after the call must not corrupt the session's event log or its record
// of the last suggestion.
func TestSessionDetachedFromCallerBuffers(t *testing.T) {
	mkSession := func() *Session {
		s, err := NewSession(Config{Space: "case5", Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	outcomeWith := func(sql string) Outcome {
		return Outcome{
			Workload:    Workload{Statements: []Statement{{SQL: sql, Weight: 1}}, Unlimited: true},
			Performance: 21000, Baseline: 20000,
		}
	}

	// Clean run: distinct outcomes, untouched advice.
	clean := mkSession()
	if _, err := clean.Suggest(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := clean.Report(outcomeWith("SELECT a FROM t WHERE b = 1")); err != nil {
		t.Fatal(err)
	}
	if err := clean.Report(outcomeWith("SELECT c FROM u WHERE d = 2")); err != nil {
		t.Fatal(err)
	}
	wantSnap, err := clean.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Hostile run: one statement buffer reused and overwritten between
	// reports, and the returned advice mutated after Suggest.
	hostile := mkSession()
	adv, err := hostile.Suggest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for k := range adv.Config {
		adv.Config[k] = -1
	}
	for i := range adv.Unit {
		adv.Unit[i] = -1
	}
	buf := []Statement{{SQL: "SELECT a FROM t WHERE b = 1", Weight: 1}}
	o := Outcome{Workload: Workload{Statements: buf, Unlimited: true}, Performance: 21000, Baseline: 20000}
	if err := hostile.Report(o); err != nil {
		t.Fatal(err)
	}
	buf[0].SQL = "SELECT c FROM u WHERE d = 2" // reuse the buffer in place
	o2 := Outcome{Workload: Workload{Statements: buf, Unlimited: true}, Performance: 21000, Baseline: 20000}
	if err := hostile.Report(o2); err != nil {
		t.Fatal(err)
	}
	gotSnap, err := hostile.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantSnap, gotSnap) {
		t.Fatal("caller-side mutation leaked into the session snapshot")
	}

	// The config's options, rollout and hardware pointers are the
	// caller's too: mutating them after create changes neither the
	// snapshot nor what a restore of it continues with.
	newConfig := func() Config {
		opts, roll, hw := DefaultTunerOptions(), RolloutConfig{Window: 2}, dbsim.DefaultHardware()
		return Config{Space: "case5", Seed: 6, Options: &opts, Rollout: &roll, Hardware: &hw}
	}
	twin, err := NewSession(newConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := newConfig()
	live, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Options.SafetyMargin, cfg.Rollout.Mode, cfg.Hardware.VCPUs = 0.5, RolloutModeBlueGreen, 1
	step := func(s *Session, i int) Advice {
		adv, err := s.Suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Report(goldenOutcome(i)); err != nil {
			t.Fatal(err)
		}
		return adv
	}
	for i := 0; i < 4; i++ {
		step(twin, i)
		step(live, i)
	}
	liveSnap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if twinSnap, err := twin.Snapshot(); err != nil || !bytes.Equal(liveSnap, twinSnap) {
		t.Fatalf("mutating the caller's config pointers changed the session snapshot (err %v)", err)
	}
	restored, err := Restore(liveSnap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 10; i++ {
		if a, b := step(live, i), step(restored, i); !reflect.DeepEqual(a, b) {
			t.Fatalf("iter %d: restored session diverged from the live one\nlive:     %+v\nrestored: %+v", i, a, b)
		}
	}
}

// TestOnlineTunerAdapterRoundTrip is the adapter coverage formerly in
// internal/baselines: the unified-interface wrapper drives core
// correctly and records every observation.
func TestOnlineTunerAdapterRoundTrip(t *testing.T) {
	space := knobs.CaseStudy5()
	a := NewOnlineTuner(space, 4, space.DBADefault(), 1, DefaultTunerOptions())
	if a.Name() != "OnlineTune" {
		t.Fatal("name wrong")
	}
	in := dbsim.New(space, 3)
	gen := workload.NewYCSB(1)
	var last Metrics
	ctx := make([]float64, 4)
	for i := 0; i < 30; i++ {
		w := gen.At(i)
		dba := in.DBAResult(w)
		ctx[0], ctx[1], ctx[2], ctx[3] = w.ReadFrac, w.ScanFrac, w.Skew, w.DataGB/100
		env := Env{Iter: i, Snapshot: w, Ctx: ctx, Metrics: last, Tau: dba.Objective(w.OLAP), OLAP: w.OLAP, HW: in.HW}
		cfg := a.Propose(env)
		res := in.Eval(cfg, w, dbsim.EvalOptions{})
		a.Feedback(env, cfg, res)
		last = res.Metrics
	}
	if a.T.Repo.Len() != 30 {
		t.Fatalf("repository holds %d observations", a.T.Repo.Len())
	}
	if rec := a.Last(); rec == nil {
		t.Fatal("no last recommendation")
	}
}
