package bench

import (
	"testing"

	"repro/internal/dbsim"
	"repro/internal/featurize"
	"repro/internal/knobs"
	"repro/internal/workload"
	"repro/tune"
)

// stoppingLoop drives a stoppingTuner against the simulator one interval
// at a time, measuring τ as the DBA default's performance.
type stoppingLoop struct {
	st    *stoppingTuner
	in    *dbsim.Instance
	feat  *featurize.Featurizer
	lastM dbsim.InternalMetrics
}

func newStoppingLoop(eiTrigger float64, patience int, gens ...workload.Generator) *stoppingLoop {
	space := knobs.CaseStudy5()
	feat := featurize.New(3)
	feat.Pretrain(gens, 2)
	return &stoppingLoop{st: newStoppingTuner(space, feat.Dim(), 11, eiTrigger, patience), in: dbsim.New(space, 7), feat: feat}
}

func (l *stoppingLoop) step(i int, gen workload.Generator) {
	w := gen.At(i)
	env := tune.Env{Iter: i, Snapshot: w, Ctx: l.feat.Context(w, l.in.OptimizerStats(w)), Metrics: l.lastM, HW: l.in.HW}
	dba := l.in.DBAResult(w)
	env.Tau = dba.Objective(false)
	cfg := l.st.Propose(env)
	res := l.in.Eval(cfg, w, dbsim.EvalOptions{})
	l.st.Feedback(env, cfg, res)
	l.lastM = res.Metrics
}

func TestStoppingTunerPausesOnConvergence(t *testing.T) {
	gen := &workload.YCSB{Seed: 1, ReadRatioAt: func(int) float64 { return 0.75 }}
	l := newStoppingLoop(0.05, 4, gen)
	pausedIters := 0
	for i := 0; i < 120; i++ {
		l.step(i, gen)
		if l.st.holding {
			pausedIters++
		}
	}
	// On a static workload the tuner should converge and spend a
	// meaningful share of the run paused.
	if pausedIters < 10 {
		t.Fatalf("stopping mechanism never engaged (%d paused iterations)", pausedIters)
	}
	if l.st.pauses == 0 {
		t.Fatal("configuration changed every iteration despite pausing")
	}
}

func TestStoppingTunerRetriggersOnContextShift(t *testing.T) {
	readA := &workload.YCSB{Seed: 1, ReadRatioAt: func(int) float64 { return 1.0 }}
	readB := &workload.YCSB{Seed: 1, ReadRatioAt: func(int) float64 { return 0.4 }}
	l := newStoppingLoop(0.02, 4, readA, readB)
	for i := 0; i < 80; i++ {
		l.step(i, readA)
	}
	// Shift the workload hard: the read-heavy optimum no longer fits.
	// Some interval must enter paused yet reconfigure — the EI trigger,
	// not an unsafe measurement, ending the hold.
	retriggered := 0
	for i := 80; i < 120; i++ {
		held, pauses := l.st.holding, l.st.pauses
		l.step(i, readB)
		if held && l.st.pauses == pauses {
			retriggered++
		}
	}
	if retriggered == 0 {
		t.Fatal("context shift should re-trigger configuring")
	}
}

func TestStoppingResumesAfterUnsafe(t *testing.T) {
	space := knobs.CaseStudy5()
	st := newStoppingTuner(space, 1, 1, 0.02, 1)
	st.holding = true
	st.applied = space.Encode(space.DBADefault())
	env := tune.Env{Ctx: []float64{0}, Tau: 100}
	st.Feedback(env, space.Decode(st.applied), tune.Result{Throughput: 50}) // unsafe: perf < τ
	if st.holding {
		t.Fatal("unsafe observation must resume configuring")
	}
}
