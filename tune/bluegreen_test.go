package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/rollout"
	"repro/internal/workload"
)

// bgStep drives one suggest → eval → report interval of a bluegreen
// session through the NEW wire surface: the staged replica's target
// comes from Advice.Targets and both measurements go back role-keyed in
// Outcome.Measurements (no flat Performance/Failed fields at all).
// Switchover intervals apply the cache-cold penalty to the serving
// replica, as a real orchestrator would observe.
func bgStep(t *testing.T, s *Session, serving, staged *dbsim.Instance, gen workload.Generator, i int) Advice {
	t.Helper()
	adv, err := s.Suggest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w := gen.At(i)
	opt := dbsim.EvalOptions{}
	if adv.RolloutPhase == RolloutSwitchover {
		opt.SwitchoverColdSec = dbsim.DefaultSwitchoverColdSec
	}
	pt, ok := adv.Targets[RolePrimary]
	if adv.RolloutPhase != "" && (!ok || !reflect.DeepEqual(pt.Config, adv.Config)) {
		t.Fatalf("iter %d: Targets[primary] %+v does not mirror Config %+v", i, pt, adv.Config)
	}
	res := serving.Eval(adv.Config, w, opt)
	dba := serving.DBAResult(w)
	o := Outcome{
		Workload: WorkloadFromSnapshot(w),
		Stats:    serving.OptimizerStats(w),
		Metrics:  res.Metrics,
		Baseline: dba.Objective(w.OLAP),
		Measurements: map[Role]ReplicaPerf{
			RolePrimary: {Performance: res.Objective(w.OLAP), Failed: res.Failed},
		},
	}
	if st, ok := adv.Targets[RoleStaged]; ok {
		sres := staged.Eval(st.Config, w, dbsim.EvalOptions{})
		o.Measurements[RoleStaged] = ReplicaPerf{Performance: sres.Objective(w.OLAP), Failed: sres.Failed}
	}
	if err := s.Report(o); err != nil {
		t.Fatal(err)
	}
	return adv
}

// TestSessionBlueGreenEndToEnd drives a bluegreen session through the
// simulator via the role-keyed wire surface: candidates tune on the
// green replica while blue serves, promotions swap the roles through an
// explicit switchover, and the whole run snapshots and restores.
func TestSessionBlueGreenEndToEnd(t *testing.T) {
	cfg := Config{Space: "case5", Seed: 7, Rollout: &RolloutConfig{Mode: RolloutModeBlueGreen}}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Rollout()
	if st.Mode != RolloutModeBlueGreen || len(st.Replicas) != 2 {
		t.Fatalf("fresh bluegreen status: %+v", st)
	}
	if st.Replicas[0].Name != "blue" || st.Replicas[1].Name != "green" {
		t.Fatalf("replica names: %+v", st.Replicas)
	}

	serving := dbsim.New(knobs.CaseStudy5(), 9)
	staged := dbsim.New(knobs.CaseStudy5(), 1009)
	gen := workload.NewYCSB(5)
	phases := map[string]int{}
	for i := 0; i < 120; i++ {
		adv := bgStep(t, s, serving, staged, gen, i)
		if adv.RolloutPhase == "" {
			t.Fatalf("iter %d: bluegreen advice without a phase", i)
		}
		if adv.RolloutPhase == RolloutCanary {
			t.Fatalf("iter %d: bluegreen session reported the canary phase", i)
		}
		phases[adv.RolloutPhase]++
	}
	if phases[RolloutTuning] == 0 {
		t.Fatal("120 iterations never staged a candidate on the green replica")
	}
	st = s.Rollout()
	if st.Promotions+st.Rollbacks == 0 {
		t.Fatal("candidates tuned but no decision ever made")
	}
	// Every finished promotion performed its switchover (the last one
	// may still be in flight when the loop ends).
	if st.Promotions > 0 && st.Metrics.Switchovers < st.Promotions-1 {
		t.Fatalf("%d promotions but only %d switchovers", st.Promotions, st.Metrics.Switchovers)
	}
	if st.Metrics.Switchovers > 0 {
		if phases[RolloutSwitchover] == 0 {
			t.Fatal("switchovers recorded but no switchover-phase advice seen")
		}
		if st.Metrics.SwitchoverDowntime.Count != st.Metrics.Switchovers {
			t.Fatalf("downtime histogram %+v vs %d switchovers", st.Metrics.SwitchoverDowntime, st.Metrics.Switchovers)
		}
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(data); err != nil {
		t.Fatalf("restoring bluegreen session: %v", err)
	}
}

// TestSnapshotRestoreBlueGreenProperty is the mid-switchover restart
// equivalence property: a bluegreen session is snapshotted and restored
// every 7 iterations AND whenever the controller sits in a switchover
// or revalidation window, so restores land on both boundary kinds. The
// fabricated outcomes force the full arc — two promotions building a
// previous-good chain, then a performance collapse that drives a chain
// rollback, a failed revalidation and finally the classic rollback to
// the anchor — and the restored session's advice must stay bitwise
// identical throughout.
func TestSnapshotRestoreBlueGreenProperty(t *testing.T) {
	cfg := Config{Space: "case5", Seed: 3, Rollout: &RolloutConfig{Mode: RolloutModeBlueGreen, Window: 2}}
	uninterrupted, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	interrupted, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outcome := func(i int, perf, stagedPerf float64, primaryFailed bool, adv Advice) Outcome {
		o := Outcome{
			Workload: Workload{
				Statements: []Statement{{SQL: "SELECT c_balance FROM customer WHERE c_id = 42"}},
				Unlimited:  true, ReadFrac: 0.8, Skew: 0.5, DataGB: 18,
			},
			Stats:    OptimizerStats{RowsExamined: 120, FilterPct: 30, IndexUsedFrac: 1},
			Metrics:  Metrics{BufferPoolHitRate: 0.96, QPS: 20000},
			Baseline: 90,
			Measurements: map[Role]ReplicaPerf{
				RolePrimary: {Performance: perf, Failed: primaryFailed},
			},
		}
		if _, ok := adv.Targets[RoleStaged]; ok {
			o.Measurements[RoleStaged] = ReplicaPerf{Performance: stagedPerf}
		}
		return o
	}

	seen := map[string]bool{}
	restoredIn := map[string]int{}
	for i := 0; i < 400; i++ {
		st := uninterrupted.Rollout()
		phase := string(st.Phase)
		if i > 0 && (i%7 == 0 || phase == RolloutSwitchover || phase == RolloutRevalidate) {
			data, err := interrupted.Snapshot()
			if err != nil {
				t.Fatalf("iter %d: Snapshot: %v", i, err)
			}
			interrupted, err = Restore(data)
			if err != nil {
				t.Fatalf("iter %d (phase %s): Restore: %v", i, phase, err)
			}
			restoredIn[phase]++
		}
		a, err := uninterrupted.Suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := interrupted.Suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("iter %d: advice diverged after restore\nuninterrupted: %+v\nrestored:      %+v", i, a, b)
		}
		// Healthy replicas until two promotions stack a chain entry,
		// then a global collapse: a steady interval fails the serving
		// primary outright (forcing the drift rollback into the chain
		// walk) and the staged replica regresses too, so the chain
		// target's probation window fails and the walk unwinds down to
		// the classic anchor rollback. The failure is only injected on
		// steady intervals — a mid-window primary failure would clear
		// the chain instead of walking it.
		perf, stagedPerf := 105+float64(i%5), 130.0
		failedPrimary := false
		if st.Promotions >= 2 {
			perf, stagedPerf = 50, 50
			_, stagedActive := a.Targets[RoleStaged]
			failedPrimary = !stagedActive && a.RolloutPhase == RolloutSteady
		}
		if err := uninterrupted.Report(outcome(i, perf, stagedPerf, failedPrimary, a)); err != nil {
			t.Fatal(err)
		}
		if err := interrupted.Report(outcome(i, perf, stagedPerf, failedPrimary, b)); err != nil {
			t.Fatal(err)
		}
		if ev := uninterrupted.Rollout().LastEvent; ev != nil {
			seen[ev.Kind] = true
		}
		if seen[rollout.EventSwitchover] && seen[rollout.EventChainRollback] && seen[rollout.EventRollback] && i%7 == 1 {
			break
		}
	}
	for _, kind := range []string{rollout.EventSwitchover, rollout.EventChainRollback, rollout.EventRollback} {
		if !seen[kind] {
			t.Fatalf("property run never exercised a %s decision (saw %v)", kind, seen)
		}
	}
	if restoredIn[RolloutSwitchover] == 0 || restoredIn[RolloutRevalidate] == 0 {
		t.Fatalf("restores never landed on a switchover and a revalidation boundary: %v", restoredIn)
	}
	sa, sb := uninterrupted.Rollout(), interrupted.Rollout()
	if sa.Phase != sb.Phase || sa.Promotions != sb.Promotions || sa.Rollbacks != sb.Rollbacks ||
		sa.ChainDepth != sb.ChainDepth || !reflect.DeepEqual(sa.Metrics, sb.Metrics) {
		t.Fatalf("rollout state diverged:\n%+v\n%+v", sa, sb)
	}
}

// TestOutcomeWireCompat pins the report-body contract for the primary's
// measurement: the flat performance/failed fields and a
// Measurements[primary] entry must drive two identical sessions to
// bitwise-identical advice (the staged measurement has one spelling,
// Measurements[staged], in both), and both bodies must survive the
// server's strict unknown-field decoding.
func TestOutcomeWireCompat(t *testing.T) {
	cfg := Config{Space: "case5", Seed: 3, Rollout: &RolloutConfig{Window: 2}}
	oldStyle, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newStyle, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		a, err := oldStyle.Suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := newStyle.Suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("iter %d: advice diverged between wire forms\nold: %+v\nnew: %+v", i, a, b)
		}
		base := Outcome{
			Workload: Workload{
				Statements: []Statement{{SQL: "SELECT c_balance FROM customer WHERE c_id = 42"}},
				Unlimited:  true, ReadFrac: 0.8, Skew: 0.5, DataGB: 18,
			},
			Stats:    OptimizerStats{RowsExamined: 120, FilterPct: 30, IndexUsedFrac: 1},
			Metrics:  Metrics{BufferPoolHitRate: 0.96, QPS: 20000},
			Baseline: 90,
		}
		perf := 105 + float64(i%5)
		ofl, onw := base, base
		ofl.Performance = perf
		onw.Measurements = map[Role]ReplicaPerf{RolePrimary: {Performance: perf}}
		if a.RolloutPhase == RolloutCanary {
			ofl.Measurements = map[Role]ReplicaPerf{RoleStaged: {Performance: 130}}
			onw.Measurements[RoleStaged] = ReplicaPerf{Performance: 130}
		}
		// Both forms must pass the server's DisallowUnknownFields gate.
		for _, o := range []Outcome{ofl, onw} {
			body, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			var rt Outcome
			if err := dec.Decode(&rt); err != nil {
				t.Fatalf("iter %d: outcome does not round-trip strict decoding: %v\n%s", i, err, body)
			}
		}
		if err := oldStyle.Report(ofl); err != nil {
			t.Fatal(err)
		}
		if err := newStyle.Report(onw); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := oldStyle.Rollout(), newStyle.Rollout()
	if sa.Promotions != sb.Promotions || sa.Rollbacks != sb.Rollbacks || sa.Phase != sb.Phase {
		t.Fatalf("rollout state diverged between wire forms: %+v vs %+v", sa, sb)
	}
	if sa.Promotions == 0 {
		t.Fatal("compat run never promoted — the staged measurements were not consumed")
	}
}

// TestAdviceWireGolden pins the advice wire format: the staged
// candidate travels in the role-keyed targets map and nowhere else,
// with exactly these names.
func TestAdviceWireGolden(t *testing.T) {
	adv := Advice{
		Iter:         4,
		Config:       KnobConfig{"innodb_buffer_pool_size": 12884901888},
		Unit:         []float64{0.75},
		RolloutPhase: RolloutTuning,
		Targets: map[Role]ConfigRef{
			RolePrimary: {Config: KnobConfig{"innodb_buffer_pool_size": 12884901888}, Unit: []float64{0.75}},
			RoleStaged:  {Config: KnobConfig{"innodb_buffer_pool_size": 17179869184}, Unit: []float64{1}},
		},
	}
	got, err := json.MarshalIndent(adv, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "iter": 4,
  "config": {
    "innodb_buffer_pool_size": 12884901888
  },
  "unit": [
    0.75
  ],
  "rollout_phase": "tuning",
  "targets": {
    "primary": {
      "config": {
        "innodb_buffer_pool_size": 12884901888
      },
      "unit": [
        0.75
      ]
    },
    "staged": {
      "config": {
        "innodb_buffer_pool_size": 17179869184
      },
      "unit": [
        1
      ]
    }
  }
}`
	if string(got) != want {
		t.Fatalf("advice wire form drifted:\n got: %s\nwant: %s", got, want)
	}
}

// TestBlueGreenOverHTTP mirrors the CI api-smoke bluegreen flow
// in-process: session info carries the nested rollout object (and no
// flat phase beside it), and the rollout endpoint reports mode,
// replica roles, chain depth and the switchover metrics.
func TestBlueGreenOverHTTP(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	cfg := Config{Space: "case5", Seed: 3, Rollout: &RolloutConfig{Mode: RolloutModeBlueGreen, Window: 2}}
	var raw json.RawMessage
	doJSON(t, srv, "POST", "/v1/sessions", map[string]any{"id": "bg", "config": cfg}, http.StatusCreated, &raw)
	for _, frag := range []string{`"mode": "bluegreen"`, `"phase": "steady"`} {
		if !strings.Contains(string(raw), frag) {
			t.Fatalf("session info missing %s:\n%s", frag, raw)
		}
	}
	if strings.Contains(string(raw), "rollout_phase") {
		t.Fatalf("session info still carries the flat rollout_phase:\n%s", raw)
	}
	var info SessionInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Rollout == nil || info.Rollout.Mode != RolloutModeBlueGreen || info.Rollout.Phase != RolloutSteady {
		t.Fatalf("nested rollout info: %+v", info.Rollout)
	}

	// A session without rollout keeps the nested object for the direct
	// phase and an invalid mode is rejected up front.
	var plain SessionInfo
	doJSON(t, srv, "POST", "/v1/sessions", map[string]any{"id": "plain", "config": Config{Space: "case5"}}, http.StatusCreated, &plain)
	if plain.Rollout == nil || plain.Rollout.Phase != RolloutDirect || plain.Rollout.Mode != "" {
		t.Fatalf("direct session rollout info: %+v", plain.Rollout)
	}
	doJSON(t, srv, "POST", "/v1/sessions",
		map[string]any{"id": "bad", "config": Config{Space: "case5", Rollout: &RolloutConfig{Mode: "purple"}}},
		http.StatusBadRequest, nil)

	var st RolloutStatus
	doJSON(t, srv, "GET", "/v1/sessions/bg/rollout", nil, http.StatusOK, &st)
	if st.Mode != RolloutModeBlueGreen || len(st.Replicas) != 2 || st.Replicas[0].Role != rollout.RoleServing {
		t.Fatalf("rollout status: %+v", st)
	}

	outcome := func(i int, staged bool) map[string]any {
		o := map[string]any{
			"workload": map[string]any{
				"statements": []map[string]any{{"sql": "SELECT c_balance FROM customer WHERE c_id = 42"}},
				"unlimited":  true, "read_frac": 0.8, "skew": 0.5, "data_gb": 18,
			},
			"optimizer_stats": map[string]any{"rows_examined": 120, "filter_pct": 30, "index_used_frac": 1},
			"metrics":         map[string]any{"buffer_pool_hit_rate": 0.96, "qps": 20000},
			"baseline":        90,
			"measurements":    map[string]any{"primary": map[string]any{"performance": 105 + float64(i%5)}},
		}
		if staged {
			o["measurements"].(map[string]any)["staged"] = map[string]any{"performance": 130}
		}
		return o
	}
	// Drive to a promotion; the switchover phase must surface over HTTP.
	sawSwitchover := false
	for i := 0; i < 200 && st.Promotions == 0; i++ {
		var adv Advice
		doJSON(t, srv, "POST", "/v1/sessions/bg/suggest", nil, http.StatusOK, &adv)
		if adv.RolloutPhase == RolloutSwitchover {
			sawSwitchover = true
		}
		_, staged := adv.Targets[RoleStaged]
		doJSON(t, srv, "POST", "/v1/sessions/bg/report", outcome(i, staged), http.StatusOK, nil)
		doJSON(t, srv, "GET", "/v1/sessions/bg/rollout", nil, http.StatusOK, &st)
	}
	if st.Promotions == 0 {
		t.Fatalf("no promotion within 200 iterations: %+v", st)
	}
	// Finish the switchover and check the recorded cost surfaces.
	for i := 0; i < 5 && st.Metrics.Switchovers == 0; i++ {
		var adv Advice
		doJSON(t, srv, "POST", "/v1/sessions/bg/suggest", nil, http.StatusOK, &adv)
		if adv.RolloutPhase == RolloutSwitchover {
			sawSwitchover = true
		}
		_, staged := adv.Targets[RoleStaged]
		doJSON(t, srv, "POST", "/v1/sessions/bg/report", outcome(i, staged), http.StatusOK, nil)
		doJSON(t, srv, "GET", "/v1/sessions/bg/rollout", nil, http.StatusOK, &st)
	}
	if !sawSwitchover {
		t.Fatal("switchover phase never surfaced in advice")
	}
	if st.Metrics.Switchovers != 1 || st.Metrics.PromoteLatency.Count != 1 {
		t.Fatalf("switchover metrics over HTTP: %+v", st.Metrics)
	}
	var rawSt json.RawMessage
	doJSON(t, srv, "GET", "/v1/sessions/bg/rollout", nil, http.StatusOK, &rawSt)
	for _, frag := range []string{`"mode": "bluegreen"`, `"replicas"`, `"promote_latency"`, `"switchover_downtime"`, `"chain_depth"`} {
		if !strings.Contains(string(rawSt), frag) {
			t.Fatalf("rollout wire form missing %s:\n%s", frag, rawSt)
		}
	}
}
