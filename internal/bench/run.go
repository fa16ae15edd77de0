// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§7): it drives any Tuner against
// the simulated instance over a workload schedule, records per-iteration
// performance, safety statistics and tuner overhead, and prints the
// series/tables the paper reports.
package bench

import (
	"math"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/featurize"
	"repro/internal/knobs"
	"repro/internal/workload"
	"repro/tune"
)

// Objective selects the per-interval scalar to maximize.
type Objective int

// Objective kinds.
const (
	// Auto uses throughput for OLTP intervals and −execution-time for
	// OLAP intervals (the paper's Fig. 5 setting).
	Auto Objective = iota
	// NegP99 maximizes −p99 latency (the paper's OLTP/OLAP-cycle
	// setting, §7.1.2).
	NegP99
)

// value extracts the objective from a result.
func (o Objective) value(res dbsim.Result, olap bool) float64 {
	switch o {
	case NegP99:
		return -res.P99LatencyMs
	default:
		return res.Objective(olap)
	}
}

// UnsafeMargin is the relative slack used when counting unsafe
// recommendations: a measurement below τ by more than this fraction is
// unsafe. It absorbs the simulator's ~2% measurement noise (2.5σ), so a
// configuration exactly at default performance is essentially never
// miscounted while genuinely regressing configurations still are.
const UnsafeMargin = 0.05

// RunConfig describes one experiment run.
type RunConfig struct {
	Space       *knobs.Space
	Gen         workload.Generator
	Iters       int
	Seed        int64
	IntervalSec float64
	Objective   Objective
	// TauFromDBA selects the safety threshold source: true (default
	// experiments) uses the DBA default's performance; false the MySQL
	// vendor default's (§7.3.4).
	TauFromMySQLDefault bool
	// Feat supplies a shared pre-trained featurizer; nil builds one.
	Feat *featurize.Featurizer
}

// Series is the recorded trace of one tuner's run. The JSON tags define
// the BENCH_*.json artifact schema (see WriteJSON and the README's
// "Benchmark trajectory" section); renaming a tag is a breaking change
// for the cross-PR perf tracking.
type Series struct {
	Name     string    `json:"name"`
	Perf     []float64 `json:"perf"` // per-iteration objective
	Tau      []float64 `json:"tau"`  // per-iteration safety threshold
	Cum      []float64 `json:"cum"`  // cumulative objective
	Unsafe   int       `json:"unsafe"`
	Failures int       `json:"failures"`
	// ProposeMs / FeedbackMs are per-iteration tuner computation times.
	ProposeMs  []float64 `json:"propose_ms"`
	FeedbackMs []float64 `json:"feedback_ms"`
	// SafetySetSizes and RegionKinds are OnlineTune diagnostics (empty
	// for baselines).
	SafetySetSizes []int    `json:"safety_set_sizes,omitempty"`
	RegionKinds    []string `json:"region_kinds,omitempty"`
	ModelIndices   []int    `json:"model_indices,omitempty"`
	// Units are the unit-encoded configurations applied each iteration.
	Units [][]float64 `json:"units,omitempty"`
}

// CumFinal returns the final cumulative objective.
func (s *Series) CumFinal() float64 {
	if len(s.Cum) == 0 {
		return 0
	}
	return s.Cum[len(s.Cum)-1]
}

// NewFeaturizer builds and pre-trains the context featurizer on the
// standard workload corpus (featurize.NewPretrained).
func NewFeaturizer(seed int64) *featurize.Featurizer {
	return featurize.NewPretrained(seed)
}

// Run drives one tuner through the workload schedule.
func Run(t tune.Tuner, rc RunConfig) *Series {
	in := dbsim.New(rc.Space, rc.Seed)
	feat := rc.Feat
	if feat == nil {
		feat = NewFeaturizer(rc.Seed)
	}
	if rc.IntervalSec == 0 {
		rc.IntervalSec = 180
	}

	s := &Series{Name: t.Name()}
	var lastMetrics dbsim.InternalMetrics
	var ctx []float64
	cum := 0.0
	for i := 0; i < rc.Iters; i++ {
		w := rc.Gen.At(i)
		// The context buffer is reused across iterations: nothing holds it
		// past the Feedback call (core clones what it stores).
		ctx = feat.ContextInto(ctx, w, in.OptimizerStats(w))
		var tauRes dbsim.Result
		if rc.TauFromMySQLDefault {
			tauRes = in.DefaultResult(w)
		} else {
			tauRes = in.DBAResult(w)
		}
		tau := rc.Objective.value(tauRes, w.OLAP)
		env := baselines.TuneEnv{
			Iter: i, Snapshot: w, Ctx: ctx, Metrics: lastMetrics,
			Tau: tau, OLAP: w.OLAP, HW: in.HW,
		}

		start := time.Now()
		cfg := t.Propose(env)
		proposeMs := float64(time.Since(start).Microseconds()) / 1000

		res := in.Eval(cfg, w, dbsim.EvalOptions{IntervalSec: rc.IntervalSec})
		perf := rc.Objective.value(res, w.OLAP)

		start = time.Now()
		t.Feedback(env, cfg, res)
		feedbackMs := float64(time.Since(start).Microseconds()) / 1000

		lastMetrics = res.Metrics
		cum += perf
		s.Perf = append(s.Perf, perf)
		s.Tau = append(s.Tau, tau)
		s.Cum = append(s.Cum, cum)
		s.ProposeMs = append(s.ProposeMs, proposeMs)
		s.FeedbackMs = append(s.FeedbackMs, feedbackMs)
		s.Units = append(s.Units, rc.Space.Encode(cfg))
		if res.Failed {
			s.Failures++
			s.Unsafe++
		} else if perf < tau-UnsafeMargin*math.Abs(tau) {
			s.Unsafe++
		}
		if ot, ok := t.(interface{ Last() *core.Recommendation }); ok {
			if rec := ot.Last(); rec != nil {
				s.SafetySetSizes = append(s.SafetySetSizes, rec.SafetySetSize)
				s.RegionKinds = append(s.RegionKinds, rec.RegionKind)
				s.ModelIndices = append(s.ModelIndices, rec.ModelIndex)
			}
		}
	}
	return s
}

// StandardTuners builds the paper's baseline set for a knob space:
// OnlineTune, BO, DDPG, ResTune, QTune, MysqlTuner, and the DBA/vendor
// fixed configurations.
func StandardTuners(space *knobs.Space, ctxDim int, seed int64) []tune.Tuner {
	return []tune.Tuner{
		tune.NewOnlineTuner(space, ctxDim, space.DBADefault(), seed, tune.DefaultTunerOptions()),
		baselines.NewBO(space, seed+1),
		baselines.NewDDPG(space, seed+2),
		baselines.NewResTune(space, seed+3),
		baselines.NewQTune(space, ctxDim, seed+4),
		baselines.NewMysqlTuner(space),
		baselines.NewFixed("MysqlDefault", space.Default()),
		baselines.NewFixed("DBADefault", space.DBADefault()),
	}
}
