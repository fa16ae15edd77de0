package tune

import (
	"repro/internal/core"
	"repro/internal/knobs"
	"repro/internal/whitebox"
)

// OnlineTuner adapts core.OnlineTune (Algorithm 3) to the unified Tuner
// interface. It is the only place outside the core package's own tests
// that constructs the tuner.
type OnlineTuner struct {
	T        *core.OnlineTune
	lastUnit []float64
	name     string
}

// NewOnlineTuner builds the OnlineTune tuner. initial is the initial
// safety-set configuration (raw values); the paper uses the DBA default.
func NewOnlineTuner(space *knobs.Space, ctxDim int, initial KnobConfig, seed int64, opts TunerOptions) *OnlineTuner {
	u := space.Encode(initial)
	return &OnlineTuner{
		T:        core.New(space, ctxDim, u, seed, opts),
		lastUnit: u,
	}
}

// NewOnlineTunerNamed is NewOnlineTuner with a custom display name, for
// experiments that run several OnlineTune variants side by side.
func NewOnlineTunerNamed(name string, space *knobs.Space, ctxDim int, initial KnobConfig, seed int64, opts TunerOptions) *OnlineTuner {
	a := NewOnlineTuner(space, ctxDim, initial, seed, opts)
	a.name = name
	return a
}

// Name implements Tuner.
func (a *OnlineTuner) Name() string {
	if a.name != "" {
		return a.name
	}
	return "OnlineTune"
}

// Propose implements Tuner.
func (a *OnlineTuner) Propose(env Env) KnobConfig {
	rec := a.T.Recommend(env.Ctx, whitebox.Env{HW: env.HW, Load: env.Snapshot, Metrics: env.Metrics}, env.Tau)
	a.lastUnit = rec.Unit
	return rec.Config
}

// Feedback implements Tuner. The context stored with the observation is
// env.Ctx — the context of the interval the measurement was taken in.
func (a *OnlineTuner) Feedback(env Env, cfg KnobConfig, res Result) {
	a.T.Observe(env.Iter, env.Ctx, a.lastUnit, res.Objective(env.OLAP), env.Tau, res.Failed)
}

// Last returns the decision path of the latest recommendation.
func (a *OnlineTuner) Last() *core.Recommendation { return a.T.LastRecommendation() }

// FeedbackStaged consumes one paired canary observation: the primary
// measured under the last-good configuration and the shadow under the
// staged candidate.
func (a *OnlineTuner) FeedbackStaged(env Env, primary Result, shadowPerf float64, shadowFailed bool) {
	a.T.ObservePair(env.Iter, env.Ctx, primary.Objective(env.OLAP), shadowPerf, env.Tau, primary.Failed, shadowFailed)
}
