// Package rollout implements staged rollout of recommended
// configurations: instead of applying a candidate straight to the
// primary instance, the candidate is staged on a second replica, a
// comparison window of paired primary/staged observations is collected,
// and a promotion policy decides whether the candidate is promoted to
// the primary or rolled back to the last-good configuration. This turns
// the tuner's pre-apply safety prediction into an operational guarantee:
// a configuration that regresses in practice is observed regressing on
// the staged replica and never reaches the primary.
//
// There is one machine. Two replicas, blue and green, take turns: one
// serves at the last-good configuration while the other stands by at
// it, or runs a staged candidate. A promotion swaps their roles. The
// mode decides only how many intervals that swap occupies:
//
//   - bluegreen: both replicas are live, so the newly serving replica
//     pays a cache-cold *switchover* of DefaultSwitchoverIntervals, whose
//     cost (downtime intervals, in-flight failures, post-switch recovery
//     time until throughput re-clears τ) goes into the per-session
//     metrics.
//   - canary (the default): the staged replica is a shadow that serves
//     no traffic, so the swap takes zero intervals and a canary never
//     enters the switchover phase.
//
// The state machine (all coordinates are unit-hypercube encodings):
//
//	           Submit(candidate ≠ last-good)
//	┌────────┐ ───────────────────────────► ┌────────────────┐
//	│ steady │                              │     tuning     │──┐
//	└────────┘ ◄──────────┬──────────────── └────────────────┘  │ ObservePair
//	  ▲   ▲    rollback:  │ promote                  ▲          │ (fills the
//	  │   │    candidate  │                          └──────────┘  window)
//	  │   │    discarded  ▼
//	  │   │  ┌────────────────────┐  roles swap; bluegreen records the
//	  │   └──│     switchover     │  downtime/failure cost over
//	  │      └────────────────────┘  DefaultSwitchoverIntervals (canary: 0)
//	  │  drift rollback pops the previous-good chain:
//	  │      ┌────────────────────┐  chain target re-validated by a
//	  └──────│     revalidate     │  short PAIRED window on the staged
//	         └────────────────────┘  replica (primary serves the anchor)
//	                                 before sticking; failure pops the
//	                                 next entry
//
// Drift rollback walks a bounded *previous-good chain* — the stack of
// configurations that each survived a full promotion window — rather
// than jumping straight to the initial anchor: a recently validated
// config is a better bet under drift than the (possibly stale) seed
// default. But drift may have invalidated the chain entry too, so it is
// never applied to the serving primary unvalidated: the primary reverts
// to the anchor while the target fills a shortened paired window
// (revalWindow) on the staged replica, and only a clean window promotes
// it back (paying the normal switchover). Once the chain is exhausted
// the primary stays at the initial safe configuration, exactly as the
// pre-chain controller did.
//
// The controller is deterministic: every decision is a pure function of
// the observed performance pairs, so a snapshot/replay of the driving
// session reproduces the exact promote/switchover/rollback history.
package rollout

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/mathx"
)

// Phase is the controller's externally visible state.
type Phase string

// Phases. PhaseDirect is reported by drivers whose rollout is disabled
// (the direct-apply ablation). An enabled controller is steady (primary
// runs the last-good configuration, no candidate in flight), tuning (a
// candidate is staged on the non-serving replica), switchover (bluegreen
// roles are swapping after a promote), or revalidate (a previous-good
// chain target is filling a shortened paired window on the staged
// replica after a drift rollback while the primary serves the anchor).
const (
	PhaseDirect     Phase = "direct"
	PhaseSteady     Phase = "steady"
	PhaseTuning     Phase = "tuning"
	PhaseSwitchover Phase = "switchover"
	PhaseRevalidate Phase = "revalidate"
)

// Modes.
const (
	ModeCanary    = "canary"
	ModeBlueGreen = "bluegreen"
)

// Event kinds recorded for rollout decisions.
const (
	EventPromote       = "promote"
	EventRollback      = "rollback"
	EventSwitchover    = "switchover"
	EventChainRollback = "chain_rollback"
)

// Policy defaults and the controller's fixed constants.
const (
	// DefaultWindow is the number of paired observations a promotion
	// decision requires.
	DefaultWindow = 3
	// DefaultThreshold is the relative regression tolerance against the
	// incumbent and, in the steady-phase drift rollback, against τ. The
	// promotion gate's τ floor has NO slack: τ is the performance the
	// operator was promised (the untuned default).
	DefaultThreshold = 0.02
	// DefaultMaxChain bounds the previous-good chain the drift rollback
	// walks back through before reverting to the initial anchor.
	DefaultMaxChain = 8
	// DefaultSwitchoverIntervals is how many intervals a bluegreen
	// switchover occupies (the cache-cold dip window).
	DefaultSwitchoverIntervals = 1
)

// Policy configures the staged rollout (a tuner without one applies
// directly); the other rollout parameters are the constants above.
type Policy struct {
	// Mode selects how long a promotion's role swap takes: ModeCanary
	// (default) stages candidates on a non-serving shadow, so the swap
	// is instant; ModeBlueGreen keeps two live replicas, and the swap
	// costs a DefaultSwitchoverIntervals switchover.
	Mode string `json:"mode,omitempty"`
	// Window is the number of paired primary/staged observations the
	// promotion decision requires (0 = DefaultWindow).
	Window int `json:"window,omitempty"`
	// PromoteMargin is the fraction of the mean safety threshold τ a
	// staged mean must clear ABOVE τ before promotion. The default 0
	// promotes any candidate whose staged mean merely touches τ —
	// maximum tuning velocity, but a config truly sitting just under τ
	// can ride a favorable noise draw onto the serving primary. Setting
	// it to DefaultThreshold makes the promote gate symmetric with the
	// drift rollback: a candidate must clear τ by at least the margin a
	// serving config is allowed to dip below it. Validate refuses a
	// negative margin, which would promote below τ.
	PromoteMargin float64 `json:"promote_margin,omitempty"`
}

// WithDefaults fills zero fields with the defaults.
func (p Policy) WithDefaults() Policy {
	if p.Mode == "" {
		p.Mode = ModeCanary
	}
	if p.Window <= 0 {
		p.Window = DefaultWindow
	}
	return p
}

// Validate rejects a policy the controller must not run: an unknown
// mode, or a negative promote margin, which would lower the τ floor.
func (p Policy) Validate() error {
	switch p.Mode {
	case "", ModeCanary, ModeBlueGreen:
	default:
		return fmt.Errorf("rollout: unknown mode %q (want %q or %q)", p.Mode, ModeCanary, ModeBlueGreen)
	}
	if !(p.PromoteMargin >= 0) {
		return fmt.Errorf("rollout: promote_margin %g is negative: it would promote below the safety threshold", p.PromoteMargin)
	}
	return nil
}

// Event is one rollout decision — promote, rollback, switchover, or
// chain rollback — the provenance exposed to drivers and recorded in
// session snapshot logs.
type Event struct {
	// Kind is EventPromote, EventRollback, EventSwitchover, or
	// EventChainRollback.
	Kind string `json:"kind"`
	// Iter is the tuning interval at which the decision was made.
	Iter int `json:"iter"`
	// Candidate is the decided candidate in unit coordinates (for a
	// chain rollback: the demoted configuration).
	Candidate []float64 `json:"candidate,omitempty"`
	// PrimaryMean/ShadowMean/TauMean are the comparison-window means the
	// decision was based on.
	PrimaryMean float64 `json:"primary_mean"`
	ShadowMean  float64 `json:"shadow_mean"`
	TauMean     float64 `json:"tau_mean"`
	// Pairs is how many paired observations were collected.
	Pairs int `json:"pairs"`
	// Downtime and InFlightFailures carry a switchover's measured cost:
	// intervals below τ during the swap and failed in-flight intervals.
	Downtime         int `json:"downtime,omitempty"`
	InFlightFailures int `json:"in_flight_failures,omitempty"`
	// ChainDepth is the previous-good chain depth remaining after a
	// chain rollback.
	ChainDepth int `json:"chain_depth,omitempty"`
	// Reason is a human-readable explanation of the decision.
	Reason string `json:"reason"`
}

// Histogram is a fixed-bucket counting histogram over small interval
// counts (promote latency, switchover downtime, recovery time). Bounds
// are inclusive upper edges; the last counter is the overflow bucket.
type Histogram struct {
	Bounds []int `json:"bounds"`
	Counts []int `json:"counts"`
	Count  int   `json:"count"`
	Sum    int   `json:"sum"`
	Max    int   `json:"max"`
}

// histBounds are the shared bucket edges (in intervals).
var histBounds = []int{1, 2, 3, 5, 8, 13, 21}

func newHistogram() Histogram {
	return Histogram{Bounds: slices.Clone(histBounds), Counts: make([]int, len(histBounds)+1)}
}

// Observe adds one value.
func (h *Histogram) Observe(v int) {
	if h.Counts == nil {
		*h = newHistogram()
	}
	i := len(h.Bounds)
	for b, edge := range h.Bounds {
		if v <= edge {
			i = b
			break
		}
	}
	h.Counts[i]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

func (h Histogram) clone() Histogram {
	h.Bounds = slices.Clone(h.Bounds)
	h.Counts = slices.Clone(h.Counts)
	return h
}

// Metrics is the per-session rollout cost accounting.
type Metrics struct {
	// PromoteLatency is the distribution of intervals from a candidate's
	// first paired observation to its promotion.
	PromoteLatency Histogram `json:"promote_latency"`
	// SwitchoverDowntime is the distribution of below-τ intervals per
	// switchover, and SwitchoverRecovery the distribution of post-switch
	// intervals until throughput re-cleared τ.
	SwitchoverDowntime Histogram `json:"switchover_downtime"`
	SwitchoverRecovery Histogram `json:"switchover_recovery"`
	// Switchovers counts completed switchovers; InFlightFailures counts
	// failed intervals observed during switchovers.
	Switchovers      int `json:"switchovers"`
	InFlightFailures int `json:"in_flight_failures"`
	// ChainRollbacks counts rollbacks resolved by stepping back through
	// the previous-good chain (as opposed to reverting to the anchor).
	ChainRollbacks int `json:"chain_rollbacks"`
}

func (m Metrics) clone() Metrics {
	m.PromoteLatency = m.PromoteLatency.clone()
	m.SwitchoverDowntime = m.SwitchoverDowntime.clone()
	m.SwitchoverRecovery = m.SwitchoverRecovery.clone()
	return m
}

// Replica roles.
const (
	RoleServing = "serving"
	RoleStaged  = "staged"
	RoleStandby = "standby"
)

// Replica describes one replica's current assignment.
type Replica struct {
	// Name is the replica's stable identity, "blue" or "green".
	Name string `json:"name"`
	// Role is RoleServing, RoleStaged, or RoleStandby.
	Role string `json:"role"`
	// Config is the unit-coordinate configuration the replica runs: the
	// candidate while staged, last-good otherwise.
	Config []float64 `json:"config,omitempty"`
	// Healthy is false while the serving replica's most recent observed
	// interval failed. A staged failure ends its window at once and is
	// reported in LastEvent, so at rest only the serving replica's flag
	// is tracked, and the other replica reads healthy.
	Healthy bool `json:"healthy"`
}

// Status is a copy of the controller's externally visible state.
type Status struct {
	Phase Phase `json:"phase"`
	// Mode echoes the active rollout mode.
	Mode string `json:"mode,omitempty"`
	// LastGood is the configuration currently applied to the serving
	// primary (unit coordinates) — the rollback target.
	LastGood []float64 `json:"last_good,omitempty"`
	// Candidate is the configuration staged on the non-serving replica
	// (tuning and revalidate phases only).
	Candidate []float64 `json:"candidate,omitempty"`
	// Replicas describes each replica's role, configuration, and health.
	Replicas []Replica `json:"replicas,omitempty"`
	// ChainDepth is the previous-good chain's current depth.
	ChainDepth int `json:"chain_depth"`
	// Pairs/Window report the comparison window's fill level.
	Pairs  int `json:"pairs"`
	Window int `json:"window"`
	// RegressionThreshold echoes DefaultThreshold.
	RegressionThreshold float64 `json:"regression_threshold"`
	// Promotions/Rollbacks count decisions over the controller's life.
	Promotions int `json:"promotions"`
	Rollbacks  int `json:"rollbacks"`
	// Metrics is the rollout cost accounting (latency/downtime/recovery
	// histograms).
	Metrics Metrics `json:"metrics"`
	// LastEvent is the most recent decision (nil before the first).
	LastEvent *Event `json:"last_event,omitempty"`
}

// Controller is the rollout state machine for one primary instance. Not
// safe for concurrent use; core.OnlineTune serializes access under its
// own mutex.
type Controller struct {
	policy Policy
	// initial is the known-safe anchor configuration (the DBA default
	// whose performance defines τ) — the final rollback target once the
	// previous-good chain is exhausted.
	initial []float64
	st      State
}

// State is a controller's mutable state: everything but its policy and
// anchor, metrics included.
type State struct {
	LastGood []float64 `json:"last_good"`
	// Candidate is non-nil exactly while a tuning or revalidate window
	// is in flight.
	Candidate []float64 `json:"candidate,omitempty"`
	Primary   []float64 `json:"primary,omitempty"`
	Shadow    []float64 `json:"shadow,omitempty"`
	Taus      []float64 `json:"taus,omitempty"`
	// SteadyBad counts consecutive steady-phase intervals where the
	// applied configuration measured below τ by more than the threshold.
	SteadyBad int `json:"steady_bad,omitempty"`
	// StagedStart is the iter of the in-flight candidate's first paired
	// observation (promote-latency accounting).
	StagedStart int `json:"staged_start"`

	// Chain is the previous-good stack: configurations that each
	// survived a full promotion window, oldest first. The initial
	// anchor is its implicit bottom and is never pushed.
	Chain [][]float64 `json:"chain,omitempty"`
	// Revalidating marks the in-flight candidate as a previous-good
	// chain target on probation after a drift rollback: it fills a
	// shortened paired window on the staged replica while the primary
	// serves the initial anchor, and only sticks on promotion.
	Revalidating bool `json:"revalidating,omitempty"`

	// Switchover state: ServingBlue tracks which replica serves;
	// SwitchLeft counts the remaining switchover intervals (always 0 in
	// canary mode);
	// SwitchDowntime/SwitchFailures accumulate the in-flight cost;
	// Recovering/RecoverIntervals track the post-switch window until
	// throughput re-clears τ.
	ServingBlue      bool `json:"serving_blue"`
	SwitchLeft       int  `json:"switch_left,omitempty"`
	SwitchDowntime   int  `json:"switch_downtime,omitempty"`
	SwitchFailures   int  `json:"switch_failures,omitempty"`
	Recovering       bool `json:"recovering,omitempty"`
	RecoverIntervals int  `json:"recover_intervals,omitempty"`

	// ServingFailed is the serving replica's most recent observed
	// interval's failure flag.
	ServingFailed bool `json:"serving_failed,omitempty"`

	Promotions int     `json:"promotions"`
	Rollbacks  int     `json:"rollbacks"`
	Metrics    Metrics `json:"metrics"`
	LastEvent  *Event  `json:"last_event,omitempty"`
}

// NewController returns a controller whose primary currently runs the
// initial configuration (unit coordinates).
func NewController(p Policy, initial []float64) *Controller {
	return &Controller{
		policy:  p.WithDefaults(),
		initial: mathx.VecClone(initial),
		st: State{
			LastGood:    mathx.VecClone(initial),
			ServingBlue: true,
			Metrics: Metrics{
				PromoteLatency:     newHistogram(),
				SwitchoverDowntime: newHistogram(),
				SwitchoverRecovery: newHistogram(),
			},
		},
	}
}

// State returns a copy of the controller's state.
func (c *Controller) State() State {
	st := c.st
	st.Primary = slices.Clone(st.Primary)
	st.Shadow = slices.Clone(st.Shadow)
	st.Taus = slices.Clone(st.Taus)
	st.Chain = slices.Clone(st.Chain)
	st.Metrics = st.Metrics.clone()
	if st.LastEvent != nil {
		ev := *st.LastEvent
		st.LastEvent = &ev
	}
	return st
}

// SetState installs an exported state, rejecting one whose
// configurations do not fit the anchor's dimension or whose window and
// histograms are misshapen.
func (c *Controller) SetState(st State) error {
	dim := len(c.initial)
	fits := func(u []float64) bool { return len(u) == dim }
	ok := fits(st.LastGood) && (st.Candidate == nil || fits(st.Candidate)) &&
		len(st.Shadow) == len(st.Primary) && len(st.Taus) == len(st.Primary)
	for _, u := range st.Chain {
		ok = ok && fits(u)
	}
	for _, h := range []Histogram{st.Metrics.PromoteLatency, st.Metrics.SwitchoverDowntime, st.Metrics.SwitchoverRecovery} {
		ok = ok && slices.Equal(h.Bounds, histBounds) && len(h.Counts) == len(histBounds)+1
	}
	if !ok {
		return fmt.Errorf("rollout: state does not fit a %d-dimensional controller", dim)
	}
	c.st = st
	return nil
}

// CanaryActive reports whether a candidate is staged on the non-serving
// replica (tuning or revalidate phase): the next report is a pair.
func (c *Controller) CanaryActive() bool { return c.st.Candidate != nil }

// Phase returns the controller's phase without copying any state (the
// cheap alternative to Status for phase-only checks).
func (c *Controller) Phase() Phase {
	switch {
	case c.st.Candidate != nil && c.st.Revalidating:
		return PhaseRevalidate
	case c.st.Candidate != nil:
		return PhaseTuning
	case c.st.SwitchLeft > 0:
		return PhaseSwitchover
	default:
		return PhaseSteady
	}
}

// Hold reports whether the next recommendation must hold the current
// assignment instead of running the acquisition — true during tuning (a
// window is filling), revalidate (a chain target is filling its
// probation window on the staged replica), and switchover (roles are
// swapping). It returns the primary's configuration and the staged
// candidate (nil during a switchover). Held iterations consume no
// randomness, so replay stays exact.
func (c *Controller) Hold() (primary, staged []float64, phase Phase, ok bool) {
	if c.st.Candidate == nil && c.st.SwitchLeft == 0 {
		return nil, nil, PhaseSteady, false
	}
	return c.st.LastGood, c.st.Candidate, c.Phase(), true
}

// LastGood returns the configuration currently applied to the primary.
func (c *Controller) LastGood() []float64 { return c.st.LastGood }

// Candidate returns the staged candidate (nil outside tuning and
// revalidate).
func (c *Controller) Candidate() []float64 { return c.st.Candidate }

// Submit routes a freshly recommended candidate. It returns the
// configuration to apply on the primary and the configuration to stage
// on the non-serving replica (nil when no staging starts: the candidate
// already matches the applied configuration, or the controller is
// mid-switchover/revalidation). Submitting during an active window
// holds the staged state unchanged.
func (c *Controller) Submit(candidate []float64) (primary, staged []float64) {
	if c.st.Candidate != nil {
		return c.st.LastGood, c.st.Candidate
	}
	if c.st.SwitchLeft > 0 || slices.Equal(candidate, c.st.LastGood) {
		return c.st.LastGood, nil
	}
	c.stage(mathx.VecClone(candidate))
	return c.st.LastGood, c.st.Candidate
}

// stage puts candidate on the non-serving replica with an empty
// comparison window.
func (c *Controller) stage(candidate []float64) {
	c.st.Candidate = candidate
	c.st.Primary = c.st.Primary[:0]
	c.st.Shadow = c.st.Shadow[:0]
	c.st.Taus = c.st.Taus[:0]
	c.st.StagedStart = -1
}

// popChain stages the most recent previous-good entry on probation —
// the primary keeps serving the anchor until the entry re-validates —
// and returns the chain depth it was taken from.
func (c *Controller) popChain() int {
	n := len(c.st.Chain)
	c.stage(c.st.Chain[n-1])
	c.st.Chain = c.st.Chain[:n-1]
	c.st.Revalidating = true
	return n
}

// ObservePair records one paired interval measurement — the primary
// running last-good and the staged replica running the candidate, plus
// the interval's safety threshold τ — and returns the decision it
// triggered: EventPromote, EventRollback, or "" while the window is
// still filling. A staged-replica failure (hang/OOM) rolls back
// immediately without waiting for the window, and so does a primary
// failure: a primary failing under the last-good configuration
// invalidates the comparison, so the candidate is discarded, the
// previous-good chain (now suspect) is cleared, and the primary reverts
// to the initial safe anchor rather than holding the window open
// against a sick baseline.
func (c *Controller) ObservePair(iter int, primaryPerf, shadowPerf, tau float64, primaryFailed, shadowFailed bool) string {
	if c.st.Candidate == nil {
		return ""
	}
	// The pair is recorded before any decision so failure rollbacks
	// carry the failing interval's actual measurements in their
	// provenance instead of empty-window zeros.
	c.st.Primary = append(c.st.Primary, primaryPerf)
	c.st.Shadow = append(c.st.Shadow, shadowPerf)
	c.st.Taus = append(c.st.Taus, tau)
	if c.st.StagedStart < 0 {
		c.st.StagedStart = iter
	}
	c.st.ServingFailed = primaryFailed
	if shadowFailed {
		reason := "staged replica failed under the candidate configuration"
		if c.st.Revalidating {
			reason = "chain target failed on the staged replica during revalidation"
		}
		return c.discard(iter, reason)
	}
	if primaryFailed {
		kind := c.decide(iter, EventRollback,
			"primary failed under the last-good configuration mid-canary; candidate discarded and primary reverted to the initial safe configuration")
		c.st.LastGood = mathx.VecClone(c.initial)
		c.st.Chain = c.st.Chain[:0]
		return kind
	}
	win := c.policy.Window
	if c.st.Revalidating {
		win = c.revalWindow()
	}
	if len(c.st.Primary) < win {
		return ""
	}

	pm, sm, tm := mathx.Mean(c.st.Primary), mathx.Mean(c.st.Shadow), mathx.Mean(c.st.Taus)
	switch {
	case sm < pm-DefaultThreshold*math.Abs(pm):
		return c.discard(iter, fmt.Sprintf(
			"staged mean %.4g regressed more than %.1f%% below primary mean %.4g", sm, 100*DefaultThreshold, pm))
	case sm < tm+c.policy.PromoteMargin*math.Abs(tm):
		// With a PromoteMargin, promotion demands headroom above τ: a
		// config that merely touches the safety threshold on the staged
		// replica is one noise quantum away from regressing the moment
		// it serves, so it stays staged.
		if c.policy.PromoteMargin > 0 && sm >= tm {
			return c.discard(iter, fmt.Sprintf(
				"staged mean %.4g did not clear the safety threshold mean %.4g by the %.1f%% promotion margin",
				sm, tm, 100*c.policy.PromoteMargin))
		}
		return c.discard(iter, fmt.Sprintf(
			"staged mean %.4g fell below the safety threshold mean %.4g", sm, tm))
	default:
		return c.decide(iter, EventPromote, fmt.Sprintf(
			"staged mean %.4g cleared primary mean %.4g and threshold mean %.4g over %d paired intervals",
			sm, pm, tm, len(c.st.Primary)))
	}
}

// discard rejects the in-flight candidate. Outside revalidation it is a
// plain rollback. During revalidation the walk continues: the next
// previous-good chain entry (if any) is staged as the new probation
// target — emitted as EventChainRollback so the session log records
// every step of the walk — and only when the chain is exhausted does
// the controller settle at the anchor with a classic EventRollback.
func (c *Controller) discard(iter int, reason string) string {
	kind := EventRollback
	if c.st.Revalidating && len(c.st.Chain) > 0 {
		kind = EventChainRollback
		reason += fmt.Sprintf("; staging the previous promoted configuration (chain depth %d) for revalidation", len(c.st.Chain))
	} else if c.st.Revalidating {
		reason += "; chain exhausted, primary stays at the initial safe configuration"
	}
	c.decide(iter, kind, reason)
	if kind == EventChainRollback {
		c.st.LastEvent.ChainDepth = c.popChain()
	}
	return kind
}

// ObserveSteady records a non-paired primary measurement of unit and
// drives every steady-side state: switchover progress (cost accounting
// and the EventSwitchover emission), post-switch recovery tracking, and
// the drift rollback — a configuration that was healthy when promoted
// can decay as the workload drifts, so a failure, or Window consecutive
// measurements below τ by more than the regression threshold, reverts
// the primary to the initial anchor and stages the most recent
// previous-good chain entry for a shortened paired revalidation window
// (EventChainRollback) or, with the chain empty, simply reverts
// (EventRollback). Returns the emitted event kind or "". No-op while a
// tuning/revalidate window is active (ObservePair owns those intervals)
// or when the measured unit is not the current last-good — a promotion
// changes last-good one interval before the primary actually switches,
// and a measurement of some other configuration says nothing about
// last-good's health.
func (c *Controller) ObserveSteady(iter int, unit []float64, perf, tau float64, failed bool) string {
	if c.st.Candidate != nil {
		c.st.SteadyBad = 0
		return ""
	}
	if !slices.Equal(unit, c.st.LastGood) {
		return ""
	}
	c.st.ServingFailed = failed

	// Switchover in progress: the interval measures the newly serving
	// replica during the cache-cold dip. The dip is expected, so it
	// feeds the cost accounting, not the drift counter.
	if c.st.SwitchLeft > 0 {
		if failed {
			c.st.SwitchFailures++
			c.st.Metrics.InFlightFailures++
		}
		if failed || perf < tau {
			c.st.SwitchDowntime++
		}
		c.st.SwitchLeft--
		if c.st.SwitchLeft > 0 {
			return ""
		}
		n := c.switchoverIntervals()
		c.st.Metrics.Switchovers++
		c.st.Metrics.SwitchoverDowntime.Observe(c.st.SwitchDowntime)
		c.st.Recovering = true
		c.st.RecoverIntervals = 0
		c.st.LastEvent = &Event{
			Kind: EventSwitchover, Iter: iter, Candidate: mathx.VecClone(c.st.LastGood),
			PrimaryMean: perf, TauMean: tau, Pairs: n,
			Downtime: c.st.SwitchDowntime, InFlightFailures: c.st.SwitchFailures,
			Reason: fmt.Sprintf(
				"switchover complete: %s now serves the promoted configuration (%d downtime interval(s), %d in-flight failure(s) over %d interval(s))",
				c.servingName(), c.st.SwitchDowntime, c.st.SwitchFailures, n),
		}
		return EventSwitchover
	}

	// Post-switch recovery: count intervals until throughput re-clears
	// τ. Passive — a dip long enough to trip the drift counter below
	// still rolls back, closing the recovery window with it.
	if c.st.Recovering {
		if !failed && perf >= tau {
			c.st.Metrics.SwitchoverRecovery.Observe(c.st.RecoverIntervals)
			c.st.Recovering = false
		} else {
			c.st.RecoverIntervals++
		}
	}

	// The initial anchor is trusted unconditionally: drift tracking only
	// guards PROMOTED configurations (there is nothing to roll back to
	// below the anchor). It is exempted here — after the switchover and
	// recovery accounting above — so a promotion that happens to
	// re-promote the anchor's configuration still drains its switchover
	// window.
	if slices.Equal(c.st.LastGood, c.initial) {
		c.st.SteadyBad = 0
		return ""
	}
	if !failed && perf >= tau-DefaultThreshold*math.Abs(tau) {
		c.st.SteadyBad = 0
		return ""
	}
	c.st.SteadyBad++
	if !failed && c.st.SteadyBad < c.policy.Window {
		return ""
	}
	return c.rollBack(iter, perf, tau, failed)
}

// rollBack demotes the current last-good configuration: it pops the
// previous-good chain (EventChainRollback + revalidation) or, with the
// chain exhausted, reverts to the initial anchor (EventRollback, the
// pre-chain behavior).
func (c *Controller) rollBack(iter int, perf, tau float64, failed bool) string {
	demoted := c.st.LastGood
	streak := c.st.SteadyBad
	c.st.SteadyBad = 0
	if c.st.Recovering {
		c.st.Metrics.SwitchoverRecovery.Observe(c.st.RecoverIntervals)
		c.st.Recovering = false
	}
	c.st.Rollbacks++
	// The primary reverts to the known-safe anchor either way: a
	// demoted configuration never keeps serving, and a chain target is
	// never applied unvalidated.
	c.st.LastGood = mathx.VecClone(c.initial)

	if len(c.st.Chain) > 0 {
		// The most recent previous-good entry goes on probation: it must
		// clear a shortened paired window (revalWindow) against the
		// anchor before it is promoted back — drift may have invalidated
		// it too, and an unvalidated config must not reach the serving
		// primary.
		depth := c.popChain()
		c.st.Metrics.ChainRollbacks++
		reason := fmt.Sprintf(
			"applied configuration measured below the safety threshold for %d consecutive steady interval(s); primary reverted to the anchor and the previous promoted configuration (chain depth %d) staged for a %d-interval revalidation window",
			streak, depth, c.revalWindow())
		if failed {
			reason = fmt.Sprintf(
				"primary failed under the applied configuration; primary reverted to the anchor and the previous promoted configuration (chain depth %d) staged for a %d-interval revalidation window",
				depth, c.revalWindow())
		}
		c.st.LastEvent = &Event{
			Kind: EventChainRollback, Iter: iter, Candidate: mathx.VecClone(demoted),
			PrimaryMean: perf, TauMean: tau, Pairs: streak, ChainDepth: depth,
			Reason: reason,
		}
		return EventChainRollback
	}

	reason := fmt.Sprintf(
		"applied configuration measured below the safety threshold for %d consecutive steady intervals; rolled back to the initial safe configuration", streak)
	if failed {
		reason = "primary failed under the applied configuration; rolled back to the initial safe configuration"
	}
	c.st.LastEvent = &Event{
		Kind: EventRollback, Iter: iter, Candidate: mathx.VecClone(demoted),
		PrimaryMean: perf, TauMean: tau, Pairs: streak, Reason: reason,
	}
	return EventRollback
}

// revalWindow is the short probation window a chain-rollback target
// must survive before it sticks — half the promotion window, rounded
// up, so stepping back is cheaper than promoting forward.
func (c *Controller) revalWindow() int { return (c.policy.Window + 1) / 2 }

// switchoverIntervals is how many intervals a promotion's role swap
// occupies: a live bluegreen replica's cache-cold dip, or none for a
// canary shadow, which served no traffic before the swap.
func (c *Controller) switchoverIntervals() int {
	if c.policy.Mode == ModeBlueGreen {
		return DefaultSwitchoverIntervals
	}
	return 0
}

// decide finalizes the in-flight tuning or revalidate window; every
// outcome ends revalidation.
func (c *Controller) decide(iter int, kind, reason string) string {
	ev := &Event{
		Kind: kind, Iter: iter, Candidate: mathx.VecClone(c.st.Candidate),
		PrimaryMean: mathx.Mean(c.st.Primary), ShadowMean: mathx.Mean(c.st.Shadow), TauMean: mathx.Mean(c.st.Taus),
		Pairs: len(c.st.Primary), Reason: reason,
	}
	if kind == EventChainRollback {
		c.st.Metrics.ChainRollbacks++
	}
	if kind == EventPromote {
		c.st.Promotions++
		if c.st.StagedStart >= 0 {
			c.st.Metrics.PromoteLatency.Observe(iter - c.st.StagedStart + 1)
		}
		// The demoted incumbent joins the previous-good chain (the
		// initial anchor is the chain's implicit bottom and never
		// pushed); the chain is bounded, dropping oldest entries.
		if !slices.Equal(c.st.LastGood, c.initial) {
			c.st.Chain = append(c.st.Chain, c.st.LastGood)
			if len(c.st.Chain) > DefaultMaxChain {
				c.st.Chain = slices.Delete(c.st.Chain, 0, len(c.st.Chain)-DefaultMaxChain)
			}
		}
		c.st.LastGood = c.st.Candidate
		// The roles swap: the staged replica, already warm on the
		// candidate, becomes the serving primary. The cutover cost is
		// measured over the next switchoverIntervals intervals.
		c.st.ServingBlue = !c.st.ServingBlue
		c.st.SwitchLeft = c.switchoverIntervals()
		c.st.SwitchDowntime = 0
		c.st.SwitchFailures = 0
		ev.Reason += fmt.Sprintf("; switching traffic to %s", c.servingName())
	} else {
		c.st.Rollbacks++
	}
	c.st.Revalidating = false
	c.st.Candidate = nil
	c.st.Primary = c.st.Primary[:0]
	c.st.Shadow = c.st.Shadow[:0]
	c.st.Taus = c.st.Taus[:0]
	c.st.LastEvent = ev
	return kind
}

// servingName is the serving replica's stable name.
func (c *Controller) servingName() string {
	if c.st.ServingBlue {
		return "blue"
	}
	return "green"
}

// replicas assembles the per-replica view for Status. The non-serving
// replica stands by at last-good unless a candidate is staged on it.
func (c *Controller) replicas() []Replica {
	serving := Replica{Name: c.servingName(), Role: RoleServing, Config: mathx.VecClone(c.st.LastGood), Healthy: !c.st.ServingFailed}
	other := Replica{Name: "green", Role: RoleStandby, Config: mathx.VecClone(c.st.LastGood), Healthy: true}
	if !c.st.ServingBlue {
		other.Name = "blue"
	}
	if c.st.Candidate != nil {
		other.Role = RoleStaged
		other.Config = mathx.VecClone(c.st.Candidate)
	}
	return []Replica{serving, other}
}

// Status returns a copy of the controller's externally visible state.
func (c *Controller) Status() Status {
	st := Status{
		Phase:               c.Phase(),
		Mode:                c.policy.Mode,
		LastGood:            mathx.VecClone(c.st.LastGood),
		Replicas:            c.replicas(),
		ChainDepth:          len(c.st.Chain),
		Pairs:               len(c.st.Primary),
		Window:              c.policy.Window,
		RegressionThreshold: DefaultThreshold,
		Promotions:          c.st.Promotions,
		Rollbacks:           c.st.Rollbacks,
		Metrics:             c.st.Metrics.clone(),
	}
	if c.st.Candidate != nil {
		st.Candidate = mathx.VecClone(c.st.Candidate)
	}
	if c.st.LastEvent != nil {
		ev := *c.st.LastEvent
		ev.Candidate = mathx.VecClone(c.st.LastEvent.Candidate)
		st.LastEvent = &ev
	}
	return st
}
