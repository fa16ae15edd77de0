package tune

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/rollout"
	"repro/internal/workload"
)

// rolloutStep drives one suggest → eval → report interval of a
// rollout-enabled session against primary and shadow simulator
// replicas, attaching the shadow measurement whenever the advice staged
// a canary.
func rolloutStep(t *testing.T, s *Session, primary, shadow *dbsim.Instance, gen workload.Generator, i int) Advice {
	t.Helper()
	adv, err := s.Suggest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w := gen.At(i)
	res := primary.Eval(adv.Config, w, dbsim.EvalOptions{})
	dba := primary.DBAResult(w)
	o := Outcome{
		Workload:    WorkloadFromSnapshot(w),
		Stats:       primary.OptimizerStats(w),
		Metrics:     res.Metrics,
		Performance: res.Objective(w.OLAP),
		Baseline:    dba.Objective(w.OLAP),
		Failed:      res.Failed,
	}
	if adv.RolloutPhase == RolloutCanary || adv.RolloutPhase == RolloutRevalidate {
		st, ok := adv.Targets[RoleStaged]
		if !ok || st.Config == nil || st.Unit == nil {
			t.Fatalf("iter %d: %s advice without a staged configuration: %+v", i, adv.RolloutPhase, adv)
		}
		sres := shadow.Eval(st.Config, w, dbsim.EvalOptions{})
		o.Measurements = map[Role]ReplicaPerf{RoleStaged: {Performance: sres.Objective(w.OLAP), Failed: sres.Failed}}
	}
	if err := s.Report(o); err != nil {
		t.Fatal(err)
	}
	return adv
}

// TestSessionRolloutEndToEnd drives a rollout-enabled session through
// the simulator and asserts the canary machinery works through the
// public API: canaries are staged, decisions are made, the event log
// records them, and the primary only ever runs promoted configurations.
func TestSessionRolloutEndToEnd(t *testing.T) {
	cfg := Config{Space: "case5", Seed: 7, Rollout: &RolloutConfig{}}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Rollout().Phase; got != rollout.PhaseSteady {
		t.Fatalf("fresh rollout-enabled session phase = %q, want steady", got)
	}

	primary := dbsim.New(knobs.CaseStudy5(), 9)
	shadow := dbsim.New(knobs.CaseStudy5(), 1009)
	gen := workload.NewYCSB(5)
	canaries := 0
	for i := 0; i < 120; i++ {
		adv := rolloutStep(t, s, primary, shadow, gen, i)
		if adv.RolloutPhase == RolloutCanary {
			canaries++
		}
		if adv.RolloutPhase == "" {
			t.Fatalf("iter %d: rollout-enabled session produced advice without a phase", i)
		}
	}
	if canaries == 0 {
		t.Fatal("120 iterations never staged a canary")
	}
	st := s.Rollout()
	if st.Promotions+st.Rollbacks == 0 {
		t.Fatal("canaries staged but no promotion decision ever made")
	}
	// The snapshot log must carry the decisions.
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	decisions := 0
	for _, ev := range s.events {
		if ev.Kind == rollout.EventPromote || ev.Kind == rollout.EventRollback {
			if ev.Rollout == nil || ev.Rollout.Reason == "" {
				t.Fatalf("decision event without provenance: %+v", ev)
			}
			decisions++
		}
	}
	if decisions != st.Promotions+st.Rollbacks {
		t.Fatalf("event log records %d decisions, controller made %d", decisions, st.Promotions+st.Rollbacks)
	}
	// And the snapshot must restore.
	if _, err := Restore(data); err != nil {
		t.Fatalf("restoring rollout session: %v", err)
	}
}

// TestSnapshotRestoreRolloutProperty is the mid-rollout restart
// equivalence property: a rollout-enabled session snapshotted and
// restored every 7 iterations — deliberately landing inside comparison
// windows — must produce advice (including staged shadow configs and
// phases) bitwise identical to an uninterrupted session.
func TestSnapshotRestoreRolloutProperty(t *testing.T) {
	cfg := Config{Space: "case5", Seed: 7, Rollout: &RolloutConfig{Window: 3}}
	uninterrupted, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	interrupted, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	priA, priB := dbsim.New(knobs.CaseStudy5(), 9), dbsim.New(knobs.CaseStudy5(), 9)
	shA, shB := dbsim.New(knobs.CaseStudy5(), 1009), dbsim.New(knobs.CaseStudy5(), 1009)
	genA, genB := workload.NewYCSB(5), workload.NewYCSB(5)

	const iters = 100
	for i := 0; i < iters; i++ {
		if i > 0 && i%7 == 0 {
			data, err := interrupted.Snapshot()
			if err != nil {
				t.Fatalf("iter %d: Snapshot: %v", i, err)
			}
			interrupted, err = Restore(data)
			if err != nil {
				t.Fatalf("iter %d: Restore: %v", i, err)
			}
		}
		a := rolloutStep(t, uninterrupted, priA, shA, genA, i)
		b := rolloutStep(t, interrupted, priB, shB, genB, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("iter %d: advice diverged after mid-rollout restore\nuninterrupted: %+v\nrestored:      %+v", i, a, b)
		}
	}
	sa, sb := uninterrupted.Rollout(), interrupted.Rollout()
	if sa.Promotions != sb.Promotions || sa.Rollbacks != sb.Rollbacks || sa.Phase != sb.Phase {
		t.Fatalf("rollout state diverged: %+v vs %+v", sa, sb)
	}
	if sa.Promotions+sa.Rollbacks == 0 {
		t.Fatal("property run never exercised a promotion decision")
	}
}

// TestRolloutOverHTTP mirrors the CI api-smoke flow in-process: a
// rollout-enabled session is driven through the HTTP API to a canary
// promote and a forced rollback, with the rollout endpoint reporting
// each phase transition.
func TestRolloutOverHTTP(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	cfg := Config{Space: "case5", Seed: 3, Rollout: &RolloutConfig{Window: 2}}
	var info SessionInfo
	doJSON(t, srv, "POST", "/v1/sessions", map[string]any{"id": "canary", "config": cfg}, http.StatusCreated, &info)
	if info.Rollout == nil || info.Rollout.Phase != RolloutSteady {
		t.Fatalf("created session rollout = %+v", info.Rollout)
	}
	var st RolloutStatus
	doJSON(t, srv, "GET", "/v1/sessions/canary/rollout", nil, http.StatusOK, &st)
	if st.Phase != rollout.PhaseSteady || st.Window != 2 {
		t.Fatalf("rollout status %+v", st)
	}
	doJSON(t, srv, "GET", "/v1/sessions/nope/rollout", nil, http.StatusNotFound, nil)

	// outcome fabricates a steady OLTP interval; the perf wiggle keeps
	// the GP posterior non-degenerate so a canary eventually starts.
	outcome := func(i int, staged *ReplicaPerf) Outcome {
		o := Outcome{
			Workload: Workload{
				Statements: []Statement{{SQL: "SELECT c_balance FROM customer WHERE c_id = 42"}},
				Unlimited:  true, ReadFrac: 0.8, Skew: 0.5, DataGB: 18,
			},
			Stats:       OptimizerStats{RowsExamined: 120, FilterPct: 30, IndexUsedFrac: 1},
			Metrics:     Metrics{BufferPoolHitRate: 0.96, QPS: 20000},
			Performance: 105 + float64(i%5),
			Baseline:    90,
		}
		if staged != nil {
			o.Measurements = map[Role]ReplicaPerf{RoleStaged: *staged}
		}
		return o
	}

	// Drive to the first canary, then feed a strong shadow → promote.
	drive := func(maxIters int, shadowPerf float64, shadowFailed bool, want string) {
		t.Helper()
		for i := 0; i < maxIters; i++ {
			var adv Advice
			doJSON(t, srv, "POST", "/v1/sessions/canary/suggest", nil, http.StatusOK, &adv)
			var sh *ReplicaPerf
			if adv.RolloutPhase == RolloutCanary || adv.RolloutPhase == RolloutRevalidate {
				sh = &ReplicaPerf{Performance: shadowPerf, Failed: shadowFailed}
			}
			doJSON(t, srv, "POST", "/v1/sessions/canary/report", outcome(i, sh), http.StatusOK, nil)
			doJSON(t, srv, "GET", "/v1/sessions/canary/rollout", nil, http.StatusOK, &st)
			if st.LastEvent != nil && st.LastEvent.Kind == want {
				return
			}
		}
		t.Fatalf("no %s decision within %d iterations (status %+v)", want, maxIters, st)
	}
	drive(150, 130, false, rollout.EventPromote)
	if st.Promotions != 1 {
		t.Fatalf("promotions = %d after promote drive", st.Promotions)
	}
	// Next canary: a failing shadow forces an immediate rollback.
	drive(150, 0, true, rollout.EventRollback)
	if st.Rollbacks < 1 {
		t.Fatalf("rollbacks = %d after rollback drive", st.Rollbacks)
	}
	if st.LastEvent.Reason == "" {
		t.Fatal("rollback event missing its reason")
	}
}
