package tune

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/featurize"
	"repro/internal/knobs"
	"repro/internal/rollout"
	"repro/internal/workload"
)

// Statement is one observed SQL statement with its relative frequency
// within the interval (a zero weight counts as 1).
type Statement struct {
	SQL    string  `json:"sql"`
	Weight float64 `json:"weight,omitempty"`
}

// Workload describes the raw workload observed during one tuning
// interval: the sampled statements plus the operational characteristics
// the simulator's white-box rules reason about. Only Statements and
// ArrivalRate/Unlimited affect featurization; the remaining fields are
// optional hints.
type Workload struct {
	Statements []Statement `json:"statements"`
	// ArrivalRate is the offered load in queries/second; Unlimited means
	// a closed loop saturating the instance.
	ArrivalRate float64 `json:"arrival_rate,omitempty"`
	Unlimited   bool    `json:"unlimited,omitempty"`
	// OLAP marks analytic intervals (objective = −execution time).
	OLAP bool `json:"olap,omitempty"`

	// Optional operational characteristics in [0,1] unless noted.
	ReadFrac       float64 `json:"read_frac,omitempty"`
	ScanFrac       float64 `json:"scan_frac,omitempty"`
	SortFrac       float64 `json:"sort_frac,omitempty"`
	TmpFrac        float64 `json:"tmp_frac,omitempty"`
	JoinFrac       float64 `json:"join_frac,omitempty"`
	Skew           float64 `json:"skew,omitempty"`
	WorkingSetFrac float64 `json:"working_set_frac,omitempty"`
	PointFrac      float64 `json:"point_frac,omitempty"`
	TxnOps         float64 `json:"txn_ops,omitempty"`
	DataGB         float64 `json:"data_gb,omitempty"`
}

// WorkloadFromSnapshot converts a generator snapshot into the public
// Workload form (the bridge drivers use when they already run the
// internal workload generators).
func WorkloadFromSnapshot(w workload.Snapshot) Workload {
	out := Workload{
		ArrivalRate: w.ArrivalRate, Unlimited: w.Unlimited, OLAP: w.OLAP,
		ReadFrac: w.ReadFrac, ScanFrac: w.ScanFrac, SortFrac: w.SortFrac,
		TmpFrac: w.TmpFrac, JoinFrac: w.JoinFrac, Skew: w.Skew,
		WorkingSetFrac: w.WorkingSetFrac, PointFrac: w.PointFrac,
		TxnOps: w.TxnOps, DataGB: w.DataGB,
	}
	for _, q := range w.Queries {
		out.Statements = append(out.Statements, Statement{SQL: q.SQL, Weight: q.Weight})
	}
	return out
}

// snapshot converts to the internal form consumed by the featurizer and
// the white-box rules.
func (w Workload) snapshot(iter int) workload.Snapshot {
	s := workload.Snapshot{
		Iter: iter, Bench: "session",
		ArrivalRate: w.ArrivalRate, Unlimited: w.Unlimited, OLAP: w.OLAP,
		ReadFrac: w.ReadFrac, ScanFrac: w.ScanFrac, SortFrac: w.SortFrac,
		TmpFrac: w.TmpFrac, JoinFrac: w.JoinFrac, Skew: w.Skew,
		WorkingSetFrac: w.WorkingSetFrac, PointFrac: w.PointFrac,
		TxnOps: w.TxnOps, DataGB: w.DataGB,
	}
	for _, st := range w.Statements {
		wgt := st.Weight
		if wgt == 0 {
			wgt = 1
		}
		s.Queries = append(s.Queries, workload.Query{SQL: st.SQL, Weight: wgt})
	}
	return s
}

// Role identifies a rollout replica target in the wire API: RolePrimary
// is the serving replica, RoleStaged the replica evaluating a candidate
// (the non-serving replica while a candidate is staged).
type Role string

// Replica roles used as keys in Advice.Targets and
// Outcome.Measurements.
const (
	RolePrimary Role = "primary"
	RoleStaged  Role = "staged"
)

// ConfigRef is one replica's configuration assignment: the raw knob
// values plus the unit-hypercube encoding.
type ConfigRef struct {
	Config KnobConfig `json:"config"`
	Unit   []float64  `json:"unit"`
}

// ReplicaPerf is one replica's measurement for an interval.
type ReplicaPerf struct {
	// Performance is the objective the replica achieved.
	Performance float64 `json:"performance"`
	// Failed marks a replica failure (hang, crash, OOM).
	Failed bool `json:"failed,omitempty"`
}

// Outcome reports the measured result of running the last suggested
// configuration (or the initial configuration before any suggestion)
// for one interval.
type Outcome struct {
	// Workload is the raw workload observed during the interval.
	Workload Workload `json:"workload"`
	// Stats are the optimizer's per-interval aggregate estimates.
	Stats OptimizerStats `json:"optimizer_stats"`
	// Metrics are the internal DBMS counters observed in the interval.
	Metrics Metrics `json:"metrics"`
	// Performance is the objective achieved: throughput for OLTP
	// intervals, negative execution time for OLAP intervals.
	Performance float64 `json:"performance"`
	// Baseline is the default (untuned) configuration's performance for
	// this interval — the safety threshold τ.
	Baseline float64 `json:"baseline"`
	// P99LatencyMs optionally reports tail latency.
	P99LatencyMs float64 `json:"p99_latency_ms,omitempty"`
	// Failed marks an instance failure (hang, crash, OOM).
	Failed bool `json:"failed,omitempty"`
	// Measurements reports per-replica measurements keyed by role. A
	// RoleStaged entry carries the staged replica's measurement of the
	// candidate configuration — required for the comparison window to
	// advance while the session's rollout is tuning or revalidating,
	// ignored otherwise (a report without it still teaches the model the
	// primary's measurement, but defers the promotion decision). A
	// RolePrimary entry, when present, overrides the flat
	// Performance/Failed fields.
	Measurements map[Role]ReplicaPerf `json:"measurements,omitempty"`
}

// logged returns the outcome as a report's WAL record logs it: without
// the statements and optimizer stats, which only featurization reads
// (the record logs the context it derived instead), and with its own
// copy of the measurements, immune to a caller reusing the map.
func (o Outcome) logged() Outcome {
	oc := o
	oc.Workload.Statements, oc.Stats = nil, OptimizerStats{}
	if o.Measurements != nil {
		oc.Measurements = make(map[Role]ReplicaPerf, len(o.Measurements))
		for r, m := range o.Measurements {
			oc.Measurements[r] = m
		}
	}
	return oc
}

// result reconstructs the raw interval result tuners consume.
func (o Outcome) result() Result {
	r := Result{Failed: o.Failed, Metrics: o.Metrics, P99LatencyMs: o.P99LatencyMs}
	if o.Workload.OLAP {
		r.ExecTimeSec = -o.Performance
	} else {
		r.Throughput = o.Performance
	}
	return r
}

// Advice is one recommended configuration together with the decision
// path that produced it.
type Advice struct {
	// Iter is the tuning interval the advice targets.
	Iter int `json:"iter"`
	// Config is the recommended configuration (raw knob values).
	Config KnobConfig `json:"config"`
	// Unit is the same configuration in unit-hypercube encoding.
	Unit []float64 `json:"unit"`

	// Safety provenance.

	// Boundary reports that ε-greedy exploration picked the safe
	// boundary point rather than the UCB maximizer.
	Boundary bool `json:"boundary,omitempty"`
	// Fallback reports that the safe set was empty (or the model cold)
	// and the tuner stayed at the best known configuration.
	Fallback bool `json:"fallback,omitempty"`
	// SafetySetSize is the number of candidates assessed safe.
	SafetySetSize int `json:"safety_set_size,omitempty"`
	// ModelIndex is the cluster model that produced the advice.
	ModelIndex int `json:"model_index,omitempty"`
	// RegionKind is the subspace type used ("hypercube", "line",
	// "global", "probe", "init", "hold").
	RegionKind string `json:"region_kind,omitempty"`
	// WhiteBoxVetoes counts candidates the rule engine rejected.
	WhiteBoxVetoes int `json:"white_box_vetoes,omitempty"`
	// IgnoredRule names the white-box rule bypassed by conflict
	// relaxation, if any.
	IgnoredRule string `json:"ignored_rule,omitempty"`
	// RolloutPhase is the rollout state this advice was routed through:
	// empty (rollout disabled — Config goes straight to the primary),
	// "steady" (no candidate in flight), "tuning" (Config/Unit carry
	// the primary's last-good configuration while
	// Targets[RoleStaged] carries the candidate to run on the staged
	// replica; report the paired measurement via
	// Outcome.Measurements[RoleStaged]), "switchover" (a bluegreen
	// promotion is swapping the replica roles; the advice holds the
	// newly promoted configuration), or "revalidate" (a previous-good
	// chain target is on probation after a drift rollback).
	RolloutPhase string `json:"rollout_phase,omitempty"`
	// Targets is the per-replica assignment keyed by role: RolePrimary
	// mirrors Config/Unit, RoleStaged (tuning/revalidate only) is the
	// candidate to evaluate on the staged replica.
	Targets map[Role]ConfigRef `json:"targets,omitempty"`
	// EI is the model's Expected Improvement of this configuration over
	// the previously applied one (meaningful when HasEI).
	EI    float64 `json:"ei,omitempty"`
	HasEI bool    `json:"has_ei,omitempty"`
}

// Session is a durable tuning session for one database. It wraps
// OnlineTune with internal context featurization, so callers hand it
// raw observations and receive configuration advice. Safe for
// concurrent use. Snapshot serializes the session's exact state (see
// Restore); every operation also builds one WAL record, which a Manager
// appends to the session's log and replays on top of the last snapshot
// when it recovers the session.
type Session struct {
	mu    sync.Mutex
	cfg   Config
	space *knobs.Space
	feat  *featurize.Featurizer
	tuner *OnlineTuner
	hw    Hardware

	// know is the session's knowledge hook: it records what each op
	// derives on the op's event from inside tuner calls, which always run
	// under mu, and hands it back when the op is replayed.
	know *knowAdapter

	iter     int
	lastSnap workload.Snapshot
	lastCtx  []float64
	lastMet  Metrics
	lastTau  float64
	lastOLAP bool
	lastUnit []float64
	lastCfg  KnobConfig

	// next is the global index of the session's next op: the Idx of the
	// WAL record that op hands the Manager.
	next int
}

// NewSession creates a session from a declarative Config.
func NewSession(cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if cfg.Rollout != nil {
		if err := cfg.Rollout.Validate(); err != nil {
			return nil, fmt.Errorf("tune: %w", err)
		}
	}
	if err := cfg.validateOptions(); err != nil {
		return nil, err
	}
	// Detach from the caller's map and pointers: Snapshot encodes the
	// config, which must keep describing the tuner built from it.
	if cfg.Initial != nil {
		cfg.Initial = cfg.Initial.Clone()
	}
	cfg.Rollout, cfg.Options, cfg.Hardware = clonePtr(cfg.Rollout), clonePtr(cfg.Options), clonePtr(cfg.Hardware)
	space, err := cfg.space()
	if err != nil {
		return nil, err
	}
	initial, err := cfg.initial(space)
	if err != nil {
		return nil, err
	}
	// The engine+space pair is the fleet store's transfer-compatibility key.
	know := &knowAdapter{
		fleet:   cfg.fleet,
		enabled: cfg.Knowledge,
		engine:  string(space.Engine.OrMySQL()),
		space:   cfg.Space,
	}
	opts := cfg.options()
	opts.Knowledge = know
	s := &Session{
		cfg:      cfg,
		space:    space,
		feat:     featurize.NewPretrained(cfg.Seed),
		tuner:    NewOnlineTuner(space, featurize.ContextDim, initial, cfg.Seed, opts),
		hw:       cfg.hardware(),
		know:     know,
		lastCfg:  initial,
		lastUnit: space.Encode(initial),
	}
	s.lastCtx = make([]float64, s.feat.Dim())
	return s, nil
}

// clonePtr returns a pointer to a shallow copy of *p, nil for nil.
func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// Config returns the session's (defaulted) configuration.
func (s *Session) Config() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// Iter returns the number of outcomes reported so far.
func (s *Session) Iter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.iter
}

// EventCount returns the number of ops the session holds in memory
// awaiting persistence. It is 0 by construction: the session keeps no op
// log — each op hands its one WAL record to the Manager, which writes it
// before the op returns.
func (s *Session) EventCount() int { return 0 }

// Suggest recommends a configuration for the next interval, based on
// the most recently reported workload (before any report: the initial
// safe configuration).
func (s *Session) Suggest(ctx context.Context) (Advice, error) {
	adv, _, err := s.suggest(ctx)
	return adv, err
}

// suggest is Suggest that also returns the op's WAL record.
func (s *Session) suggest(ctx context.Context) (Advice, walRecord, error) {
	if err := ctx.Err(); err != nil {
		return Advice{}, walRecord{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	op := walRecord{Event: event{Kind: eventSuggest}}
	s.know.begin(&op.Event)
	prevUnit := s.lastUnit
	cfg, rec := s.proposeLocked()
	adv := Advice{
		Iter:           s.iter,
		Config:         cfg.Clone(),
		Unit:           append([]float64(nil), rec.Unit...),
		Boundary:       rec.Boundary,
		Fallback:       rec.Fallback,
		SafetySetSize:  rec.SafetySetSize,
		ModelIndex:     rec.ModelIndex,
		RegionKind:     rec.RegionKind,
		WhiteBoxVetoes: rec.WhiteBoxVetoes,
		RolloutPhase:   rec.RolloutPhase,
	}
	if rec.IgnoredRule != nil {
		adv.IgnoredRule = rec.IgnoredRule.Name
	}
	if adv.RolloutPhase != "" {
		adv.Targets = map[Role]ConfigRef{
			RolePrimary: {Config: adv.Config.Clone(), Unit: append([]float64(nil), adv.Unit...)},
		}
		if rec.ShadowUnit != nil {
			adv.Targets[RoleStaged] = ConfigRef{Config: rec.ShadowConfig.Clone(), Unit: append([]float64(nil), rec.ShadowUnit...)}
		}
	}
	if ei, ok := s.tuner.T.ExpectedImprovementAt(s.lastCtx, adv.Unit, prevUnit); ok && !math.IsInf(ei, 0) && !math.IsNaN(ei) {
		adv.EI, adv.HasEI = ei, true
	}
	s.sealLocked(&op)
	return adv, op, nil
}

// proposeLocked runs one Propose and applies its state effects — all a
// replayed suggest does (the Advice and its Expected Improvement only
// read state). The session keeps private copies of what was suggested:
// the Advice is the caller's to mutate.
func (s *Session) proposeLocked() (KnobConfig, *core.Recommendation) {
	cfg := s.tuner.Propose(s.envLocked())
	rec := s.tuner.Last() // never nil: Propose always records a recommendation
	s.lastUnit = append([]float64(nil), rec.Unit...)
	s.lastCfg = cfg.Clone()
	return cfg, rec
}

// Report feeds the measured outcome of the last suggested configuration
// back into the session: the raw workload is featurized into the
// interval's context, the tuner observes the measurement, and the
// context becomes the basis of the next Suggest.
func (s *Session) Report(o Outcome) error {
	s.report(o)
	return nil
}

// report is Report returning the op's WAL record.
func (s *Session) report(o Outcome) walRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	oc := o.logged()
	op := walRecord{Event: event{Kind: eventReport, Outcome: &oc}}
	s.know.begin(&op.Event)
	op.Event.Rollout = s.reportLocked(o, &op.Event)
	s.sealLocked(&op)
	return op
}

// sealLocked completes an op's record — its global index, and the
// session's iter and rollout phase after it — and lets the knowledge
// hook drop the event, so the session keeps nothing of the op.
func (s *Session) sealLocked(op *walRecord) {
	op.Idx, op.Iter, op.Phase = s.next, s.iter, string(s.tuner.T.RolloutPhase())
	s.next++
	s.know.op = nil
}

// reportLocked applies one outcome and returns the rollout decision
// (promote, rollback, switchover or chain rollback) it triggered, nil
// for none. The interval's context is ev's logged one if it has one (a
// replayed report, whose tokens the replay admitted); otherwise o is
// featurized, and ev logs the context and the tokens that admitted.
// Also used by Restore's replay, which checks the decision against the
// logged one.
func (s *Session) reportLocked(o Outcome, ev *event) *RolloutEvent {
	// A RolePrimary measurement overrides the flat Performance/Failed.
	// Replay runs the same normalization, so logged outcomes replay
	// identically whichever form the client used.
	if m, ok := o.Measurements[RolePrimary]; ok {
		o.Performance, o.Failed = m.Performance, m.Failed
	}
	snap := o.Workload.snapshot(s.iter)
	ctx := []float64(ev.Ctx)
	if ctx == nil {
		n := s.feat.Admitted()
		ctx = s.feat.ContextInto(nil, snap, o.Stats)
		ev.Ctx = ctx
		if s.feat.Admitted() > n {
			ev.Tok = s.feat.Vocabulary()[n:]
		}
	}
	// The context is all the tuner reads of the statements, so neither
	// the tuner nor the session keeps them: a live session and a replayed
	// one hold the same state.
	snap.Queries = nil
	env := Env{
		Iter: s.iter, Snapshot: snap, Ctx: ctx, Metrics: o.Metrics,
		Tau: o.Baseline, OLAP: snap.OLAP, HW: s.hw,
	}
	if sh, ok := o.Measurements[RoleStaged]; ok && s.tuner.T.CanaryActive() {
		s.tuner.FeedbackStaged(env, o.result(), sh.Performance, sh.Failed)
	} else {
		s.tuner.Feedback(env, s.lastCfg, o.result())
	}
	var decision *RolloutEvent
	if st := s.tuner.T.RolloutStatus(); st != nil && st.LastEvent != nil && st.LastEvent.Iter == s.iter {
		ev := *st.LastEvent
		decision = &ev
	}
	s.lastSnap, s.lastCtx, s.lastMet, s.lastTau, s.lastOLAP = snap, ctx, o.Metrics, o.Baseline, snap.OLAP
	s.iter++
	return decision
}

// envLocked assembles the per-interval environment from the latest
// reported observation.
func (s *Session) envLocked() Env {
	return Env{
		Iter: s.iter, Snapshot: s.lastSnap, Ctx: s.lastCtx,
		Metrics: s.lastMet, Tau: s.lastTau, OLAP: s.lastOLAP, HW: s.hw,
	}
}

// Rollout returns the session's canary or blue/green rollout status.
// Sessions whose rollout is disabled report PhaseDirect: recommendations
// apply straight to the primary.
func (s *Session) Rollout() RolloutStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rolloutLocked()
}

func (s *Session) rolloutLocked() RolloutStatus {
	if st := s.tuner.T.RolloutStatus(); st != nil {
		return *st
	}
	return RolloutStatus{Phase: rollout.PhaseDirect}
}

// RolloutPhase returns just the session's rollout phase ("direct",
// "steady", "tuning", "switchover", or "revalidate") without
// copying the controller state — for session listings polled per
// request.
func (s *Session) RolloutPhase() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.tuner.T.RolloutPhase())
}

// Best returns the best configuration the session has measured and its
// performance; ok is false before any safe observation.
func (s *Session) Best() (KnobConfig, float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, perf := s.tuner.T.Best()
	if math.IsInf(perf, -1) {
		return nil, 0, false
	}
	return s.space.Decode(u), perf, true
}
