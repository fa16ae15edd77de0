package core

import "time"

// StageTimes accumulates per-stage wall time across Recommend/Observe
// calls — the Table A1 breakdown — and counts the costly derivations the
// tuner computed rather than installed from a replayed log:
// hyperparameter searches, re-cluster checks by verdict, assessed
// recommendations, the forest fits behind the importance oracle and the
// posterior recenter searches (an assessment's and a probe's).
type StageTimes struct {
	ModelSelect     time.Duration
	SubspaceAdapt   time.Duration
	SafetyAssess    time.Duration
	CandidateSelect time.Duration
	ModelUpdate     time.Duration
	Iters           int

	Refits, KeptChecks, AdoptedChecks, Assessments, ImportanceFits, Recenters int
}

// Timings returns a copy of the accumulated stage times.
func (o *OnlineTune) Timings() StageTimes {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.times
}

// now and since are core's only wall-clock reads; both feed StageTimes.
func now() time.Time {
	return time.Now() //tunevet:ignore determinism -- Timings are operator-facing wall-clock metrics; they never enter the event log, snapshots, or any recommendation, so replay is unaffected
}

func since(t0 time.Time) time.Duration {
	return time.Since(t0) //tunevet:ignore determinism -- Timings are operator-facing wall-clock metrics; they never enter the event log, snapshots, or any recommendation, so replay is unaffected
}
