// Package tune is the public façade of the OnlineTune reproduction: the
// one way drivers — CLIs, examples, the benchmark harness and the tuned
// server — create and run database-configuration tuners.
//
// Three layers:
//
//   - Tuner is the unified per-interval interface OnlineTune and every
//     baseline from the paper's evaluation implement. Drivers construct
//     tuners directly; internal/bench builds the baselines.
//
//   - Session is a durable OnlineTune session for one database:
//     it accepts raw observations (SQL statements + metrics +
//     performance, not pre-featurized vectors), runs context
//     featurization internally, and exposes Suggest/Report with a rich
//     Advice struct carrying the safety provenance of each
//     recommendation. Snapshot/Restore serialize a session's exact
//     state as versioned JSON such that a restored session produces
//     bitwise-identical recommendations.
//
//   - Manager multiplexes many concurrent sessions — one registry mutex,
//     plus a per-session op gate under which each operation runs with
//     no lock held — and checkpoints them to a state directory;
//     NewServer wraps a Manager in an HTTP/JSON API (cmd/tuned).
package tune

import (
	"repro/internal/baselines"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/rollout"
)

// KnobConfig is an assignment of raw values to knob names (enum and
// bool knobs store their value index).
type KnobConfig = knobs.Config

// Metrics are the DBMS runtime counters observed during an interval.
type Metrics = dbsim.InternalMetrics

// OptimizerStats are the per-interval aggregates of the DBMS
// optimizer's estimates, featurized as the underlying-data context.
type OptimizerStats = dbsim.OptimizerStats

// Hardware describes the instance the database runs on.
type Hardware = dbsim.Hardware

// Result is the raw observation from one evaluation interval.
type Result = dbsim.Result

// RolloutStatus is the externally visible state of a session's rollout
// controller: mode, phase, per-replica assignments, last-good/candidate
// configurations, window fill, previous-good chain depth,
// promotion/rollback counts, cost metrics, and the last decision's
// provenance.
type RolloutStatus = rollout.Status

// RolloutEvent is one rollout decision (promote, rollback, switchover,
// chain rollback) with its provenance.
type RolloutEvent = rollout.Event

// Rollout phases reported by Session.Rollout and Advice.RolloutPhase.
const (
	RolloutDirect     = string(rollout.PhaseDirect)
	RolloutSteady     = string(rollout.PhaseSteady)
	RolloutTuning     = string(rollout.PhaseTuning)
	RolloutSwitchover = string(rollout.PhaseSwitchover)
	RolloutRevalidate = string(rollout.PhaseRevalidate)
)

// Rollout modes accepted by RolloutConfig.Mode.
const (
	RolloutModeCanary    = rollout.ModeCanary
	RolloutModeBlueGreen = rollout.ModeBlueGreen
)

// Env is the per-interval information handed to a Tuner: the workload
// snapshot, the featurized context, the previous interval's metrics and
// the safety threshold.
type Env = baselines.TuneEnv

// Tuner is the unified interface every tuner implements:
// propose a configuration for the next interval, then receive the
// measured result. Implementations need not be safe for concurrent use;
// Session serializes access.
type Tuner interface {
	Name() string
	Propose(env Env) KnobConfig
	Feedback(env Env, cfg KnobConfig, res Result)
}
