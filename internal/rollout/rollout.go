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
// Two modes share the promotion machinery:
//
//   - canary (the default): the staged replica is a shadow that serves
//     no traffic. Promotion is free — last-good simply becomes the
//     candidate and the primary applies it on the next interval.
//   - bluegreen: both replicas are live. Blue serves primary traffic at
//     the last-good configuration while green is tuned with the
//     candidate; when the candidate clears the promotion bar the
//     controller executes an explicit *switchover* — the roles swap and
//     green becomes the serving primary — and records its cost
//     (downtime intervals, in-flight failures, post-switch recovery
//     time until throughput re-clears τ) into the per-session metrics.
//
// The state machine (all coordinates are unit-hypercube encodings):
//
//	           Submit(candidate ≠ last-good)
//	┌────────┐ ───────────────────────────► ┌────────────────┐
//	│ steady │                              │ canary/tuning  │──┐
//	└────────┘ ◄──────────┬──────────────── └────────────────┘  │ ObservePair
//	  ▲   ▲    rollback:  │ promote                  ▲          │ (fills the
//	  │   │    candidate  │                          └──────────┘  window)
//	  │   │    discarded  ▼
//	  │   │  ┌────────────────────┐  bluegreen only: roles swap,
//	  │   └──│     switchover     │  downtime/failure cost recorded
//	  │      └────────────────────┘  over SwitchoverIntervals
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
// it back (paying the normal switchover in bluegreen mode). Once the
// chain is exhausted the primary stays at the initial safe
// configuration, exactly as the pre-chain controller did.
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
// runs the last-good configuration, no candidate in flight), canary or
// tuning (a candidate is staged — "canary" on the shadow replica in
// canary mode, "tuning" on the live green replica in bluegreen mode),
// switchover (bluegreen roles are swapping after a promote), or
// revalidate (a previous-good chain target is filling a shortened
// paired window on the staged replica after a drift rollback while the
// primary serves the anchor).
const (
	PhaseDirect     Phase = "direct"
	PhaseSteady     Phase = "steady"
	PhaseCanary     Phase = "canary"
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

// Defaults.
const (
	// DefaultWindow is the number of paired observations a promotion
	// decision requires.
	DefaultWindow = 3
	// DefaultThreshold is the relative regression beyond which a
	// candidate is rolled back.
	DefaultThreshold = 0.02
	// DefaultMaxChain bounds the previous-good chain depth.
	DefaultMaxChain = 8
	// DefaultSwitchoverIntervals is how many intervals a bluegreen
	// switchover occupies (the cache-cold dip window).
	DefaultSwitchoverIntervals = 1
)

// Policy configures the staged rollout.
type Policy struct {
	// Enabled turns the rollout on. The zero value keeps the
	// pre-rollout direct-apply behavior (the ext5 ablation).
	Enabled bool `json:"enabled,omitempty"`
	// Mode selects the rollout mode: ModeCanary (default) stages
	// candidates on a non-serving shadow replica; ModeBlueGreen keeps
	// two live replicas and swaps them on promotion.
	Mode string `json:"mode,omitempty"`
	// Window is the number of paired primary/staged observations the
	// promotion decision requires (0 = DefaultWindow).
	Window int `json:"window,omitempty"`
	// RegressionThreshold is the relative regression tolerance against
	// the incumbent: a candidate whose staged mean falls below the
	// primary mean by more than this fraction is rolled back (0 =
	// DefaultThreshold). The safety threshold τ is a hard floor on top
	// of it — a staged mean strictly below the mean τ rolls back with
	// NO slack, because τ is the performance the operator was promised
	// (the untuned default); the threshold only softens the
	// incumbent-vs-candidate comparison, and the steady-phase drift
	// rollback, where single noisy measurements rather than window
	// means are judged.
	RegressionThreshold float64 `json:"regression_threshold,omitempty"`
	// MaxChain bounds the previous-good chain: the drift rollback walks
	// back through at most this many previously promoted configurations
	// before reverting to the initial anchor (0 = DefaultMaxChain).
	MaxChain int `json:"max_chain,omitempty"`
	// SwitchoverIntervals is how many intervals a bluegreen switchover
	// occupies (0 = DefaultSwitchoverIntervals). Canary mode ignores it.
	SwitchoverIntervals int `json:"switchover_intervals,omitempty"`
	// PromoteMargin is the fraction of the mean safety threshold τ a
	// staged mean must clear ABOVE τ before promotion. The default 0
	// promotes any candidate whose staged mean merely touches τ —
	// maximum tuning velocity, but a config truly sitting just under τ
	// can ride a favorable noise draw onto the serving primary. Setting
	// it to RegressionThreshold makes the promote gate symmetric with
	// the drift rollback: a candidate must clear τ by at least the
	// margin a serving config is allowed to dip below it.
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
	if p.RegressionThreshold <= 0 {
		p.RegressionThreshold = DefaultThreshold
	}
	if p.MaxChain <= 0 {
		p.MaxChain = DefaultMaxChain
	}
	if p.SwitchoverIntervals <= 0 {
		p.SwitchoverIntervals = DefaultSwitchoverIntervals
	}
	return p
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
	// Name is the replica's stable identity: "primary"/"shadow" in
	// canary mode, "blue"/"green" in bluegreen mode.
	Name string `json:"name"`
	// Role is RoleServing, RoleStaged, or RoleStandby.
	Role string `json:"role"`
	// Config is the unit-coordinate configuration the replica runs
	// (omitted for an idle canary shadow).
	Config []float64 `json:"config,omitempty"`
	// Healthy is false while the replica's most recent observed
	// interval failed.
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
	// (canary/tuning phase only).
	Candidate []float64 `json:"candidate,omitempty"`
	// Replicas describes each replica's role, configuration, and health.
	Replicas []Replica `json:"replicas,omitempty"`
	// ChainDepth is the previous-good chain's current depth.
	ChainDepth int `json:"chain_depth"`
	// Pairs/Window report the comparison window's fill level.
	Pairs  int `json:"pairs"`
	Window int `json:"window"`
	// RegressionThreshold echoes the active policy.
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
	initial  []float64
	lastGood []float64
	// candidate is non-nil exactly while a canary/tuning window is in
	// flight.
	candidate []float64
	primary   []float64
	shadow    []float64
	taus      []float64
	// steadyBad counts consecutive steady-phase intervals where the
	// applied configuration measured below τ by more than the threshold.
	steadyBad int
	// stagedStart is the iter of the in-flight candidate's first paired
	// observation (promote-latency accounting).
	stagedStart int

	// chain is the previous-good stack: configurations that each
	// survived a full promotion window, oldest first. The initial
	// anchor is its implicit bottom and is never pushed.
	chain [][]float64
	// revalidating marks the in-flight candidate as a previous-good
	// chain target on probation after a drift rollback: it fills a
	// shortened paired window on the staged replica while the primary
	// serves the initial anchor, and only sticks on promotion.
	revalidating bool

	// Bluegreen switchover state: servingBlue tracks which replica
	// serves; switchLeft counts the remaining switchover intervals;
	// switchDowntime/switchFailures accumulate the in-flight cost;
	// recovering/recoverIntervals track the post-switch window until
	// throughput re-clears τ.
	servingBlue      bool
	switchLeft       int
	switchDowntime   int
	switchFailures   int
	recovering       bool
	recoverIntervals int

	// Replica health: the most recent observed interval's failure flag
	// per role.
	servingFailed bool
	stagedFailed  bool

	promotions int
	rollbacks  int
	metrics    Metrics
	lastEvent  *Event
}

// NewController returns a controller whose primary currently runs the
// initial configuration (unit coordinates).
func NewController(p Policy, initial []float64) *Controller {
	return &Controller{
		policy:      p.WithDefaults(),
		initial:     mathx.VecClone(initial),
		lastGood:    mathx.VecClone(initial),
		servingBlue: true,
		metrics: Metrics{
			PromoteLatency:     newHistogram(),
			SwitchoverDowntime: newHistogram(),
			SwitchoverRecovery: newHistogram(),
		},
	}
}

// CanaryActive reports whether a candidate is staged on the non-serving
// replica (canary phase in canary mode, tuning phase in bluegreen).
func (c *Controller) CanaryActive() bool { return c.candidate != nil }

// Phase returns the controller's phase without copying any state (the
// cheap alternative to Status for phase-only checks).
func (c *Controller) Phase() Phase {
	switch {
	case c.candidate != nil:
		if c.revalidating {
			return PhaseRevalidate
		}
		if c.policy.Mode == ModeBlueGreen {
			return PhaseTuning
		}
		return PhaseCanary
	case c.switchLeft > 0:
		return PhaseSwitchover
	default:
		return PhaseSteady
	}
}

// Hold reports whether the next recommendation must hold the current
// assignment instead of running the acquisition — true during
// canary/tuning (a window is filling), revalidate (a chain target is
// filling its probation window on the staged replica), and switchover
// (roles are swapping). It returns the primary's configuration and the
// staged candidate (nil during a switchover). Held iterations consume
// no randomness, so replay stays exact.
func (c *Controller) Hold() (primary, staged []float64, phase Phase, ok bool) {
	if c.candidate == nil && c.switchLeft == 0 {
		return nil, nil, PhaseSteady, false
	}
	return c.lastGood, c.candidate, c.Phase(), true
}

// LastGood returns the configuration currently applied to the primary.
func (c *Controller) LastGood() []float64 { return c.lastGood }

// Candidate returns the staged candidate (nil outside canary/tuning).
func (c *Controller) Candidate() []float64 { return c.candidate }

// ChainDepth returns the previous-good chain's current depth.
func (c *Controller) ChainDepth() int { return len(c.chain) }

// Submit routes a freshly recommended candidate. It returns the
// configuration to apply on the primary and the configuration to stage
// on the non-serving replica (nil when no staging starts: the candidate
// already matches the applied configuration, or the controller is
// mid-switchover/revalidation). Submitting during an active window
// holds the staged state unchanged.
func (c *Controller) Submit(candidate []float64) (primary, staged []float64) {
	if c.candidate != nil {
		return c.lastGood, c.candidate
	}
	if c.switchLeft > 0 {
		return c.lastGood, nil
	}
	if slices.Equal(candidate, c.lastGood) {
		return c.lastGood, nil
	}
	c.candidate = mathx.VecClone(candidate)
	c.primary = c.primary[:0]
	c.shadow = c.shadow[:0]
	c.taus = c.taus[:0]
	c.stagedStart = -1
	return c.lastGood, c.candidate
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
	if c.candidate == nil {
		return ""
	}
	// The pair is recorded before any decision so failure rollbacks
	// carry the failing interval's actual measurements in their
	// provenance instead of empty-window zeros.
	c.primary = append(c.primary, primaryPerf)
	c.shadow = append(c.shadow, shadowPerf)
	c.taus = append(c.taus, tau)
	if c.stagedStart < 0 {
		c.stagedStart = iter
	}
	c.servingFailed = primaryFailed
	c.stagedFailed = shadowFailed
	if shadowFailed {
		reason := "staged replica failed under the candidate configuration"
		if c.revalidating {
			reason = "chain target failed on the staged replica during revalidation"
		}
		return c.discard(iter, reason)
	}
	if primaryFailed {
		kind := c.decide(iter, EventRollback,
			"primary failed under the last-good configuration mid-canary; candidate discarded and primary reverted to the initial safe configuration")
		c.revalidating = false
		c.lastGood = mathx.VecClone(c.initial)
		c.chain = c.chain[:0]
		return kind
	}
	win := c.policy.Window
	if c.revalidating {
		win = c.revalWindow()
	}
	if len(c.primary) < win {
		return ""
	}

	pm, sm, tm := mathx.Mean(c.primary), mathx.Mean(c.shadow), mathx.Mean(c.taus)
	thr := c.policy.RegressionThreshold
	switch {
	case sm < pm-thr*math.Abs(pm):
		return c.discard(iter, fmt.Sprintf(
			"staged mean %.4g regressed more than %.1f%% below primary mean %.4g", sm, 100*thr, pm))
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
			sm, pm, tm, len(c.primary)))
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
	if c.revalidating && len(c.chain) > 0 {
		kind = EventChainRollback
		reason += fmt.Sprintf("; staging the previous promoted configuration (chain depth %d) for revalidation", len(c.chain))
	} else if c.revalidating {
		reason += "; chain exhausted, primary stays at the initial safe configuration"
	}
	ret := c.decide(iter, kind, reason)
	if c.revalidating {
		if n := len(c.chain); n > 0 {
			c.candidate = c.chain[n-1]
			c.chain = c.chain[:n-1]
			c.stagedStart = -1
			c.lastEvent.ChainDepth = len(c.chain) + 1
		} else {
			c.revalidating = false
		}
	}
	return ret
}

// ObserveSteady records a non-paired primary measurement of unit and
// drives every steady-side state: bluegreen switchover progress (cost
// accounting and the EventSwitchover emission), post-switch recovery
// tracking, and the drift rollback — a configuration that was healthy
// when promoted can decay as the workload drifts, so a failure, or
// Window consecutive measurements below τ by more than the regression
// threshold, reverts the primary to the initial anchor and stages the
// most recent previous-good chain entry for a shortened paired
// revalidation window (EventChainRollback) or, with the chain empty,
// simply reverts (EventRollback). Returns the emitted event kind or
// "". No-op while a canary/tuning/revalidate window is active
// (ObservePair owns those intervals) or when the measured unit is not
// the current last-good — a promotion changes last-good one interval
// before the primary actually switches, and a measurement of some other
// configuration says nothing about last-good's health.
func (c *Controller) ObserveSteady(iter int, unit []float64, perf, tau float64, failed bool) string {
	if c.candidate != nil {
		c.steadyBad = 0
		return ""
	}
	if !slices.Equal(unit, c.lastGood) {
		return ""
	}
	c.servingFailed = failed

	// Switchover in progress: the interval measures the newly serving
	// replica during the cache-cold dip. The dip is expected, so it
	// feeds the cost accounting, not the drift counter.
	if c.switchLeft > 0 {
		if failed {
			c.switchFailures++
			c.metrics.InFlightFailures++
		}
		if failed || perf < tau {
			c.switchDowntime++
		}
		c.switchLeft--
		if c.switchLeft > 0 {
			return ""
		}
		c.metrics.Switchovers++
		c.metrics.SwitchoverDowntime.Observe(c.switchDowntime)
		c.recovering = true
		c.recoverIntervals = 0
		c.lastEvent = &Event{
			Kind: EventSwitchover, Iter: iter, Candidate: mathx.VecClone(c.lastGood),
			PrimaryMean: perf, TauMean: tau, Pairs: c.policy.SwitchoverIntervals,
			Downtime: c.switchDowntime, InFlightFailures: c.switchFailures,
			Reason: fmt.Sprintf(
				"switchover complete: %s now serves the promoted configuration (%d downtime interval(s), %d in-flight failure(s) over %d interval(s))",
				c.servingName(), c.switchDowntime, c.switchFailures, c.policy.SwitchoverIntervals),
		}
		return EventSwitchover
	}

	// Post-switch recovery: count intervals until throughput re-clears
	// τ. Passive — a dip long enough to trip the drift counter below
	// still rolls back, closing the recovery window with it.
	if c.recovering {
		if !failed && perf >= tau {
			c.metrics.SwitchoverRecovery.Observe(c.recoverIntervals)
			c.recovering = false
		} else {
			c.recoverIntervals++
		}
	}

	// The initial anchor is trusted unconditionally: drift tracking only
	// guards PROMOTED configurations (there is nothing to roll back to
	// below the anchor). It is exempted here — after the switchover and
	// recovery accounting above — so a promotion that happens to
	// re-promote the anchor's configuration still drains its switchover
	// window.
	if slices.Equal(c.lastGood, c.initial) {
		c.steadyBad = 0
		return ""
	}
	if !failed && perf >= tau-c.policy.RegressionThreshold*math.Abs(tau) {
		c.steadyBad = 0
		return ""
	}
	c.steadyBad++
	if !failed && c.steadyBad < c.policy.Window {
		return ""
	}
	return c.rollBack(iter, perf, tau, failed)
}

// rollBack demotes the current last-good configuration: it pops the
// previous-good chain (EventChainRollback + revalidation) or, with the
// chain exhausted, reverts to the initial anchor (EventRollback, the
// pre-chain behavior).
func (c *Controller) rollBack(iter int, perf, tau float64, failed bool) string {
	demoted := c.lastGood
	streak := c.steadyBad
	c.steadyBad = 0
	if c.recovering {
		c.metrics.SwitchoverRecovery.Observe(c.recoverIntervals)
		c.recovering = false
	}
	c.rollbacks++
	// The primary reverts to the known-safe anchor either way: a
	// demoted configuration never keeps serving, and a chain target is
	// never applied unvalidated.
	c.lastGood = mathx.VecClone(c.initial)

	if n := len(c.chain); n > 0 {
		// The most recent previous-good entry goes on probation: it is
		// staged on the non-serving replica and must clear a shortened
		// paired window (revalWindow) against the anchor before it is
		// promoted back — drift may have invalidated it too, and an
		// unvalidated config must not reach the serving primary.
		target := c.chain[n-1]
		c.chain = c.chain[:n-1]
		c.candidate = target
		c.revalidating = true
		c.primary = c.primary[:0]
		c.shadow = c.shadow[:0]
		c.taus = c.taus[:0]
		c.stagedStart = -1
		c.stagedFailed = false
		c.metrics.ChainRollbacks++
		reason := fmt.Sprintf(
			"applied configuration measured below the safety threshold for %d consecutive steady interval(s); primary reverted to the anchor and the previous promoted configuration (chain depth %d) staged for a %d-interval revalidation window",
			streak, len(c.chain)+1, c.revalWindow())
		if failed {
			reason = fmt.Sprintf(
				"primary failed under the applied configuration; primary reverted to the anchor and the previous promoted configuration (chain depth %d) staged for a %d-interval revalidation window",
				len(c.chain)+1, c.revalWindow())
		}
		c.lastEvent = &Event{
			Kind: EventChainRollback, Iter: iter, Candidate: mathx.VecClone(demoted),
			PrimaryMean: perf, TauMean: tau, Pairs: streak, ChainDepth: len(c.chain) + 1,
			Reason: reason,
		}
		return EventChainRollback
	}

	reason := fmt.Sprintf(
		"applied configuration measured below the safety threshold for %d consecutive steady intervals; rolled back to the initial safe configuration", streak)
	if failed {
		reason = "primary failed under the applied configuration; rolled back to the initial safe configuration"
	}
	c.lastEvent = &Event{
		Kind: EventRollback, Iter: iter, Candidate: mathx.VecClone(demoted),
		PrimaryMean: perf, TauMean: tau, Pairs: streak, Reason: reason,
	}
	return EventRollback
}

// revalWindow is the short probation window a chain-rollback target
// must survive before it sticks — half the promotion window, rounded
// up, so stepping back is cheaper than promoting forward.
func (c *Controller) revalWindow() int { return (c.policy.Window + 1) / 2 }

// decide finalizes the in-flight canary/tuning window.
func (c *Controller) decide(iter int, kind, reason string) string {
	ev := &Event{
		Kind: kind, Iter: iter, Candidate: mathx.VecClone(c.candidate),
		PrimaryMean: mathx.Mean(c.primary), ShadowMean: mathx.Mean(c.shadow), TauMean: mathx.Mean(c.taus),
		Pairs: len(c.primary), Reason: reason,
	}
	if kind == EventChainRollback {
		c.metrics.ChainRollbacks++
	}
	if kind == EventPromote {
		c.revalidating = false
		c.promotions++
		if c.stagedStart >= 0 {
			c.metrics.PromoteLatency.Observe(iter - c.stagedStart + 1)
		}
		// The demoted incumbent joins the previous-good chain (the
		// initial anchor is the chain's implicit bottom and never
		// pushed); the chain is bounded, dropping oldest entries.
		if !slices.Equal(c.lastGood, c.initial) {
			c.chain = append(c.chain, c.lastGood)
			if len(c.chain) > c.policy.MaxChain {
				c.chain = slices.Delete(c.chain, 0, len(c.chain)-c.policy.MaxChain)
			}
		}
		c.lastGood = c.candidate
		if c.policy.Mode == ModeBlueGreen {
			// The roles swap: the staged replica, already warm on the
			// candidate, becomes the serving primary. The cutover cost
			// is measured over the next SwitchoverIntervals intervals.
			c.servingBlue = !c.servingBlue
			c.servingFailed, c.stagedFailed = c.stagedFailed, c.servingFailed
			c.switchLeft = c.policy.SwitchoverIntervals
			c.switchDowntime = 0
			c.switchFailures = 0
			ev.Reason += fmt.Sprintf("; switching traffic to %s", c.servingName())
		}
	} else {
		c.rollbacks++
	}
	c.candidate = nil
	c.primary = c.primary[:0]
	c.shadow = c.shadow[:0]
	c.taus = c.taus[:0]
	c.stagedFailed = false
	c.lastEvent = ev
	return kind
}

// servingName is the serving replica's stable name.
func (c *Controller) servingName() string {
	if c.policy.Mode != ModeBlueGreen {
		return "primary"
	}
	if c.servingBlue {
		return "blue"
	}
	return "green"
}

// stagedName is the non-serving replica's stable name.
func (c *Controller) stagedName() string {
	if c.policy.Mode != ModeBlueGreen {
		return "shadow"
	}
	if c.servingBlue {
		return "green"
	}
	return "blue"
}

// replicas assembles the per-replica view for Status.
func (c *Controller) replicas() []Replica {
	serving := Replica{Name: c.servingName(), Role: RoleServing, Config: mathx.VecClone(c.lastGood), Healthy: !c.servingFailed}
	staged := Replica{Name: c.stagedName(), Role: RoleStandby, Healthy: !c.stagedFailed}
	if c.candidate != nil {
		staged.Role = RoleStaged
		staged.Config = mathx.VecClone(c.candidate)
	} else if c.policy.Mode == ModeBlueGreen {
		// The bluegreen standby is live and warm at last-good.
		staged.Config = mathx.VecClone(c.lastGood)
	}
	return []Replica{serving, staged}
}

// Status returns a copy of the controller's externally visible state.
func (c *Controller) Status() Status {
	st := Status{
		Phase:               c.Phase(),
		Mode:                c.policy.Mode,
		LastGood:            mathx.VecClone(c.lastGood),
		Replicas:            c.replicas(),
		ChainDepth:          len(c.chain),
		Pairs:               len(c.primary),
		Window:              c.policy.Window,
		RegressionThreshold: c.policy.RegressionThreshold,
		Promotions:          c.promotions,
		Rollbacks:           c.rollbacks,
		Metrics:             c.metrics.clone(),
	}
	if c.candidate != nil {
		st.Candidate = mathx.VecClone(c.candidate)
	}
	if c.lastEvent != nil {
		ev := *c.lastEvent
		ev.Candidate = mathx.VecClone(c.lastEvent.Candidate)
		st.LastEvent = &ev
	}
	return st
}
