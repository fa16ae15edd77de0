// Package whitebox implements the heuristic rule engine OnlineTune
// consults as its white-box safety assistant (§6.2.2), modeled on
// MysqlTuner: static rules over DBMS metrics that emit per-knob legal
// ranges or point suggestions. Rules live in per-engine tables tagged
// with the knobs.Engine they reason about — MySQL folklore
// (MysqlTuner-style) and PostgreSQL folklore (pgtune-style) are separate
// declarative rule sets selected by NewEngineFor, so an engine's rules
// can never veto another engine's configurations. The package also
// implements the paper's rule relaxation: each rule carries a conflict
// counter and a conflict-safe counter; when the black box repeatedly
// wants a configuration a rule rejects, the rule is temporarily ignored,
// and if the controversial configurations keep proving safe, the rule's
// range is permanently relaxed.
package whitebox

import (
	"fmt"
	"math"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/workload"
)

// Range restricts one knob to [Lo, Hi] (raw values, inclusive), with an
// optional exclusion band inside it (e.g. thread_concurrency may be 0 =
// unlimited or ≥ vCPUs/2, but not in between).
type Range struct {
	Knob    string
	Lo, Hi  float64
	exclude *Range
}

// Exclude returns a copy of the range with an exclusion band inside it.
func (r Range) Exclude(lo, hi float64) Range {
	r.exclude = &Range{Knob: r.Knob, Lo: lo, Hi: hi}
	return r
}

// Contains reports whether the raw value satisfies the range.
func (r *Range) Contains(v float64) bool { return v >= r.Lo-1e-9 && v <= r.Hi+1e-9 }

// Rule produces a range restriction from the current environment, or
// ok=false when the rule does not apply.
type Rule struct {
	Name string
	// Engine tags which DBMS the rule's folklore belongs to; the zero
	// value means MySQL. Engines only evaluate rules matching their own
	// tag, so a rule can never fire for the wrong engine.
	Engine knobs.Engine
	// Credibility sets the relaxation thresholds: higher means the rule
	// is trusted longer before being relaxed.
	Credibility int
	// Apply inspects the environment and emits a restriction.
	Apply func(env Env) (Range, bool)
	// ApplyCfg, when set, replaces Apply for rules whose restriction on
	// one knob depends on another knob's candidate value (e.g. the
	// PostgreSQL work_mem budget divides by the configured
	// max_connections).
	ApplyCfg func(env Env, cfg knobs.Config) (Range, bool)

	st RuleState
}

// RuleState is a rule's relaxation state: its conflict counters, how
// many times it has been relaxed, and whether it is currently ignored.
type RuleState struct {
	Conflicts    int  `json:"conflicts,omitempty"`
	ConflictSafe int  `json:"conflict_safe,omitempty"`
	Relaxations  int  `json:"relaxations,omitempty"`
	Ignored      bool `json:"ignored,omitempty"`
}

// apply evaluates the rule's restriction for a candidate configuration.
func (r *Rule) apply(env Env, cfg knobs.Config) (Range, bool) {
	if r.ApplyCfg != nil {
		return r.ApplyCfg(env, cfg)
	}
	return r.Apply(env)
}

// Env is what the white box can observe: hardware, workload snapshot and
// the latest internal metrics.
type Env struct {
	HW      dbsim.Hardware
	Load    workload.Snapshot
	Metrics dbsim.InternalMetrics
}

// Engine evaluates rules and manages relaxation state.
type Engine struct {
	Rules []*Rule
	// For is the DBMS engine this rule engine serves; rules tagged with
	// a different engine never fire (the zero value means MySQL).
	For knobs.Engine
	// ConflictThreshold is how many black-box/white-box decision
	// conflicts a rule sustains before being ignored for one
	// recommendation.
	ConflictThreshold int
	// RelaxThreshold is how many conflict-safe observations relax the
	// rule's range permanently.
	RelaxThreshold int
}

// NewEngine returns the MysqlTuner-style rule set for the 8 vCPU / 16 GB
// reference instance (shorthand for NewEngineFor(knobs.EngineMySQL)).
func NewEngine() *Engine { return NewEngineFor(knobs.EngineMySQL) }

// NewEngineFor returns the rule engine for one DBMS engine, loaded with
// that engine's rule table.
func NewEngineFor(e knobs.Engine) *Engine {
	return &Engine{
		Rules:             RulesFor(e),
		For:               e.OrMySQL(),
		ConflictThreshold: 3,
		RelaxThreshold:    3,
	}
}

// RulesFor returns the rule table for a DBMS engine.
func RulesFor(e knobs.Engine) []*Rule {
	if e.OrMySQL() == knobs.EnginePostgres {
		return PostgresRules()
	}
	return DefaultRules()
}

// DefaultRules is the MysqlTuner-inspired rule set. Each rule encodes a
// piece of DBA folklore; ranges are deliberately conservative — the
// relaxation machinery exists precisely because such rules can exclude
// the optimum.
func DefaultRules() []*Rule {
	return []*Rule{
		{
			Name: "total-memory-budget",
			// Memory overcommit hangs the instance: this rule is
			// effectively non-relaxable (the paper scales relaxation
			// thresholds by credibility).
			Credibility: 1000,
			Apply: func(env Env) (Range, bool) {
				// Buffer pool at most 85% of RAM (the DBA's 13 GB on a
				// 16 GB box sits just inside).
				return Range{Knob: "innodb_buffer_pool_size", Lo: 0, Hi: 0.85 * env.HW.RAMBytes}, true
			},
		},
		{
			Name:        "thread-concurrency-floor",
			Credibility: 6,
			Apply: func(env Env) (Range, bool) {
				// 0 means unlimited and is fine; otherwise at least half
				// the vCPUs (the paper's §7.3.2 example).
				rg := Range{Knob: "innodb_thread_concurrency", Lo: 0, Hi: 128}
				return rg.Exclude(0.5, float64(env.HW.VCPUs)/2-0.5), true
			},
		},
		{
			Name:        "spin-wait-ceiling",
			Credibility: 4,
			Apply: func(env Env) (Range, bool) {
				if env.Load.Skew*env.Load.WriteFrac() > 0.05 {
					return Range{Knob: "innodb_spin_wait_delay", Lo: 0, Hi: 96}, true
				}
				return Range{}, false
			},
		},
		{
			Name:        "join-buffer-on-joins",
			Credibility: 2,
			Apply: func(env Env) (Range, bool) {
				// Joins without indexes per day > 250 → raise join buffer.
				if env.Load.JoinFrac > 0.2 {
					return Range{Knob: "join_buffer_size", Lo: 1 * knobs.MiB, Hi: 512 * knobs.MiB}, true
				}
				return Range{}, false
			},
		},
		{
			Name:        "per-connection-buffer-cap",
			Credibility: 3,
			Apply: func(env Env) (Range, bool) {
				// Sort buffers are allocated per connection; MysqlTuner's
				// classic warning is that values beyond a few MB multiply
				// into gigabytes under load.
				return Range{Knob: "sort_buffer_size", Lo: 0, Hi: 64 * knobs.MiB}, true
			},
		},
		{
			Name:        "sort-buffer-on-sorts",
			Credibility: 2,
			Apply: func(env Env) (Range, bool) {
				if env.Metrics.SortMergePassesPS > 10 || env.Load.SortFrac > 0.3 {
					return Range{Knob: "sort_buffer_size", Lo: 512 * knobs.KiB, Hi: 64 * knobs.MiB}, true
				}
				return Range{}, false
			},
		},
		{
			Name:        "durability-on-writes",
			Credibility: 3,
			Apply: func(env Env) (Range, bool) {
				// Conservative DBA folklore: keep full durability on
				// write-heavy workloads. Often wrong for throughput — the
				// relaxation path exercises exactly this rule.
				if env.Load.WriteFrac() > 0.5 {
					return Range{Knob: "innodb_flush_log_at_trx_commit", Lo: 1, Hi: 1}, true
				}
				return Range{}, false
			},
		},
		{
			Name:        "io-capacity-floor",
			Credibility: 2,
			Apply: func(env Env) (Range, bool) {
				if env.Metrics.DirtyPagesPct > 60 {
					return Range{Knob: "innodb_io_capacity", Lo: 1000, Hi: 20000}, true
				}
				return Range{}, false
			},
		},
		{
			Name:        "max-connections-floor",
			Credibility: 5,
			Apply: func(env Env) (Range, bool) {
				return Range{Knob: "max_connections", Lo: 64, Hi: 10000}, true
			},
		},
		{
			Name:        "tmp-table-cap",
			Credibility: 2,
			Apply: func(env Env) (Range, bool) {
				// Per-connection temp tables beyond 1 GB are reckless at
				// high connection counts.
				return Range{Knob: "tmp_table_size", Lo: 0, Hi: 1 * knobs.GiB}, true
			},
		},
	}
}

// State returns every rule's relaxation state, in rule order.
func (e *Engine) State() []RuleState {
	out := make([]RuleState, len(e.Rules))
	for i, r := range e.Rules {
		out[i] = r.st
	}
	return out
}

// SetState installs exported rule states on a fresh engine, re-applying
// each rule's relaxations, and rejects a list that does not match the
// rule table.
func (e *Engine) SetState(st []RuleState) error {
	if len(st) != len(e.Rules) {
		return fmt.Errorf("whitebox: %d rule states for %d rules", len(st), len(e.Rules))
	}
	for i, rs := range st {
		if rs.Conflicts < 0 || rs.ConflictSafe < 0 || rs.Relaxations < 0 {
			return fmt.Errorf("whitebox: rule %q has negative counters %+v", e.Rules[i].Name, rs)
		}
	}
	for i, rs := range st {
		r := e.Rules[i]
		for r.st.Relaxations < rs.Relaxations {
			r.relax()
		}
		r.st = rs
	}
	return nil
}

// Rule returns the engine's rule named name, or nil.
func (e *Engine) Rule(name string) *Rule {
	for _, r := range e.Rules {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Verdict reports the engine's judgment of one configuration.
type Verdict struct {
	OK bool
	// ViolatedRules lists rules the configuration fails.
	ViolatedRules []*Rule
	// IgnoredRule is the rule bypassed via conflict-relaxation, if any.
	IgnoredRule *Rule
}

// Check evaluates all rules against a configuration. Rules currently in
// the "ignored" state (conflict threshold reached) do not veto, but at
// most one rule may be ignored per recommendation (§6.2.2). Rules tagged
// with a different engine than the engine's own never fire.
func (e *Engine) Check(cfg knobs.Config, env Env) Verdict {
	v := Verdict{OK: true}
	for _, r := range e.Rules {
		if r.Engine.OrMySQL() != e.For.OrMySQL() {
			continue
		}
		rg, ok := r.apply(env, cfg)
		if !ok {
			continue
		}
		if satisfies(cfg, rg) {
			continue
		}
		if r.st.Ignored && v.IgnoredRule == nil {
			v.IgnoredRule = r
			continue // bypassed this once
		}
		v.OK = false
		v.ViolatedRules = append(v.ViolatedRules, r)
	}
	return v
}

// satisfies checks a configuration value against a range (with optional
// exclusion band).
func satisfies(cfg knobs.Config, rg Range) bool {
	val, present := cfg[rg.Knob]
	if !present {
		return true // knob not tuned: rule cannot bind
	}
	if !rg.Contains(val) {
		return false
	}
	if rg.exclude != nil && val >= rg.exclude.Lo && val <= rg.exclude.Hi {
		return false
	}
	return true
}

// ReportConflict records that the black box wanted a configuration this
// rule rejects. When the conflict counter passes the engine threshold
// (scaled by credibility), the rule enters the ignored state so the next
// controversial recommendation can go through.
func (e *Engine) ReportConflict(r *Rule) {
	r.st.Conflicts++
	if r.st.Conflicts >= e.ConflictThreshold+r.Credibility {
		r.st.Ignored = true
	}
}

// ReportOutcome records the evaluation result of a configuration that
// was recommended while ignoring the rule. Safe outcomes accumulate
// toward permanent relaxation; an unsafe outcome re-arms the rule.
func (e *Engine) ReportOutcome(r *Rule, safe bool) {
	if !safe {
		r.st.Ignored = false
		r.st.Conflicts = 0
		r.st.ConflictSafe = 0
		return
	}
	r.st.ConflictSafe++
	if r.st.ConflictSafe >= e.RelaxThreshold {
		r.relax()
		r.st.Ignored = false
		r.st.Conflicts = 0
		r.st.ConflictSafe = 0
	}
}

// relax permanently widens the rule by wrapping its Apply/ApplyCfg with
// a range expansion (each relaxation widens by 50% around the range
// midpoint, and drops exclusion bands).
func (r *Rule) relax() {
	r.st.Relaxations++
	widen := func(rg Range, ok bool) (Range, bool) {
		if !ok {
			return rg, ok
		}
		span := rg.Hi - rg.Lo
		if span <= 0 {
			// Point suggestion: open to a band one unit-scale wide on
			// each side (for enum knobs this admits the neighbors).
			rg.Lo = rg.Lo - math.Max(1, math.Abs(rg.Lo))
			rg.Hi = rg.Hi + math.Max(1, math.Abs(rg.Hi))
		} else {
			rg.Lo -= 0.25 * span
			rg.Hi += 0.25 * span
		}
		rg.exclude = nil
		return rg, ok
	}
	if r.ApplyCfg != nil {
		inner := r.ApplyCfg
		r.ApplyCfg = func(env Env, cfg knobs.Config) (Range, bool) {
			return widen(inner(env, cfg))
		}
		return
	}
	inner := r.Apply
	r.Apply = func(env Env) (Range, bool) {
		return widen(inner(env))
	}
}

// Relaxations returns how many times a rule has been relaxed (for
// diagnostics and the case-study visualization).
func (r *Rule) Relaxations() int { return r.st.Relaxations }

// Ignored reports whether the rule is currently bypassable.
func (r *Rule) Ignored() bool { return r.st.Ignored }
