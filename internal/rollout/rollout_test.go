package rollout

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func newC() *Controller {
	return NewController(Policy{Window: 3}, []float64{0.5, 0.5})
}

func TestSubmitSameAsLastGoodStaysSteady(t *testing.T) {
	c := newC()
	primary, shadow := c.Submit([]float64{0.5, 0.5})
	if shadow != nil {
		t.Fatal("identical candidate must not start a canary")
	}
	if !slices.Equal(primary, []float64{0.5, 0.5}) {
		t.Fatalf("primary = %v", primary)
	}
	if c.CanaryActive() {
		t.Fatal("no canary should be active")
	}
}

func TestCanaryPromotesAfterCleanWindow(t *testing.T) {
	c := newC()
	cand := []float64{0.6, 0.4}
	primary, shadow := c.Submit(cand)
	if !slices.Equal(primary, []float64{0.5, 0.5}) || !slices.Equal(shadow, cand) {
		t.Fatalf("staging wrong: primary %v shadow %v", primary, shadow)
	}
	if got := c.Status().Phase; got != PhaseTuning {
		t.Fatalf("phase = %q", got)
	}
	// Two clean pairs: window (3) not yet full.
	for i := 0; i < 2; i++ {
		if d := c.ObservePair(i, 100, 105, 98, false, false); d != "" {
			t.Fatalf("pair %d decided early: %q", i, d)
		}
	}
	if d := c.ObservePair(2, 100, 105, 98, false, false); d != EventPromote {
		t.Fatalf("decision = %q, want promote", d)
	}
	st := c.Status()
	if st.Phase != PhaseSteady || st.Promotions != 1 || st.Rollbacks != 0 {
		t.Fatalf("status after promote: %+v", st)
	}
	if !slices.Equal(st.LastGood, cand) {
		t.Fatalf("last-good not updated: %v", st.LastGood)
	}
	if st.LastEvent == nil || st.LastEvent.Kind != EventPromote || st.LastEvent.Pairs != 3 {
		t.Fatalf("last event: %+v", st.LastEvent)
	}
	// A canary promote swaps the replicas as bluegreen does, in zero
	// intervals: green serves the candidate and blue stands by at it.
	serving, standby := st.Replicas[0], st.Replicas[1]
	if serving.Name != "green" || serving.Role != RoleServing || standby.Name != "blue" ||
		standby.Role != RoleStandby || !slices.Equal(standby.Config, cand) {
		t.Fatalf("replicas after a canary promote: %+v", st.Replicas)
	}
}

func TestCanaryRollsBackOnRegression(t *testing.T) {
	c := newC()
	c.Submit([]float64{0.9, 0.9})
	c.ObservePair(0, 100, 90, 98, false, false)
	c.ObservePair(1, 100, 91, 98, false, false)
	if d := c.ObservePair(2, 100, 92, 98, false, false); d != EventRollback {
		t.Fatalf("decision = %q, want rollback", d)
	}
	st := c.Status()
	if st.Rollbacks != 1 || st.Phase != PhaseSteady {
		t.Fatalf("status after rollback: %+v", st)
	}
	if !slices.Equal(st.LastGood, []float64{0.5, 0.5}) {
		t.Fatalf("rollback must keep the previous last-good, got %v", st.LastGood)
	}
	if st.LastEvent == nil || st.LastEvent.Kind != EventRollback || !slices.Equal(st.LastEvent.Candidate, []float64{0.9, 0.9}) {
		t.Fatalf("rollback provenance missing: %+v", st.LastEvent)
	}
}

func TestCanaryRollsBackBelowTau(t *testing.T) {
	// The shadow stays within the 2% regression threshold of the primary
	// but below the safety threshold τ: the candidate must not be promoted.
	c := NewController(Policy{Window: 2}, []float64{0.5})
	c.Submit([]float64{0.7})
	c.ObservePair(0, 100, 99, 99.5, false, false)
	if d := c.ObservePair(1, 100, 99, 99.5, false, false); d != EventRollback {
		t.Fatalf("decision = %q, want rollback (shadow mean below tau mean)", d)
	}
	if ev := c.Status().LastEvent; !strings.Contains(ev.Reason, "below the safety threshold") {
		t.Fatalf("rollback reason %q is not the τ floor", ev.Reason)
	}
}

// TestNegativePromoteMarginRefused: a negative margin would promote a
// staged mean below τ, so Validate refuses it; the zero margin still
// holds the τ floor.
func TestNegativePromoteMarginRefused(t *testing.T) {
	if err := (Policy{Window: 1, PromoteMargin: -0.5}).Validate(); err == nil {
		t.Fatal("Validate accepted a negative promote margin")
	}
	c := NewController(Policy{Window: 1}, []float64{0.5})
	c.Submit([]float64{0.7})
	if d := c.ObservePair(0, 90, 95, 100, false, false); d != EventRollback {
		t.Fatalf("staged mean 95 against τ 100 decided %q, want rollback", d)
	}
}

func TestShadowFailureRollsBackImmediately(t *testing.T) {
	c := newC()
	c.Submit([]float64{0.1, 0.1})
	if d := c.ObservePair(0, 100, 0, 98, false, true); d != EventRollback {
		t.Fatalf("decision = %q, want immediate rollback on shadow failure", d)
	}
	if c.CanaryActive() {
		t.Fatal("canary must end on shadow failure")
	}
}

func TestFailedPrimaryResolvesCanaryAndRevertsToInitial(t *testing.T) {
	// Promote a first candidate so last-good differs from the initial
	// anchor, then fail the primary during the next canary.
	c := newC()
	first := []float64{0.6, 0.6}
	c.Submit(first)
	for i := 0; i < 3; i++ {
		c.ObservePair(i, 100, 110, 98, false, false)
	}
	if !slices.Equal(c.LastGood(), first) {
		t.Fatal("setup: first candidate should have promoted")
	}
	c.Submit([]float64{0.8, 0.8})
	if d := c.ObservePair(3, 0, 100, 98, true, false); d != EventRollback {
		t.Fatalf("failed primary mid-canary must resolve with a rollback, got %q", d)
	}
	if c.CanaryActive() {
		t.Fatal("canary must not stay wedged open against a failing primary")
	}
	if !slices.Equal(c.LastGood(), []float64{0.5, 0.5}) {
		t.Fatalf("primary must revert to the initial safe anchor, got %v", c.LastGood())
	}
	if ev := c.Status().LastEvent; ev == nil || ev.Kind != EventRollback {
		t.Fatalf("missing rollback provenance: %+v", ev)
	}
}

func TestSubmitDuringCanaryHoldsStagedState(t *testing.T) {
	c := newC()
	first := []float64{0.6, 0.6}
	c.Submit(first)
	primary, shadow := c.Submit([]float64{0.2, 0.2})
	if !slices.Equal(shadow, first) {
		t.Fatalf("second submit must hold the in-flight candidate, got shadow %v", shadow)
	}
	if !slices.Equal(primary, []float64{0.5, 0.5}) {
		t.Fatalf("primary drifted during hold: %v", primary)
	}
}

func TestNegativeObjectives(t *testing.T) {
	// OLAP objectives are negative (−execution time); the relative
	// threshold must still work. Shadow −102 vs primary −100 is a 2%
	// regression at threshold 2%... just beyond, so rollback.
	c := NewController(Policy{Window: 1}, []float64{0.5})
	c.Submit([]float64{0.6})
	if d := c.ObservePair(0, -100, -102.5, -103, false, false); d != EventRollback {
		t.Fatal("2.5% regression on a negative objective must roll back")
	}
	c.Submit([]float64{0.6})
	if d := c.ObservePair(1, -100, -101, -103, false, false); d != EventPromote {
		t.Fatal("1% drift within threshold on a negative objective must promote")
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.WithDefaults()
	if p.Mode != ModeCanary || p.Window != DefaultWindow {
		t.Fatalf("defaults not applied: %+v", p)
	}
	if p := (Policy{Mode: ModeBlueGreen, Window: 5}).WithDefaults(); p.Mode != ModeBlueGreen || p.Window != 5 {
		t.Fatalf("set fields overwritten: %+v", p)
	}
}

func TestStatusIsACopy(t *testing.T) {
	c := newC()
	c.Submit([]float64{0.6, 0.6})
	st := c.Status()
	st.LastGood[0] = math.NaN()
	st.Candidate[0] = math.NaN()
	if math.IsNaN(c.LastGood()[0]) || math.IsNaN(c.Candidate()[0]) {
		t.Fatal("Status must not alias controller state")
	}
}

// promote drives one full clean canary window for cand, starting pair
// iters at base. The shadow clears both the primary mean and τ.
func promote(t *testing.T, c *Controller, cand []float64, base int) {
	t.Helper()
	c.Submit(cand)
	for i := 0; ; i++ {
		d := c.ObservePair(base+i, 100, 120, 98, false, false)
		if d == EventPromote {
			return
		}
		if d != "" {
			t.Fatalf("unexpected decision %q while promoting", d)
		}
		if i > 10 {
			t.Fatal("promotion window never decided")
		}
	}
}

// TestDriftRollbackStepsBackThroughChain is the regression pin for the
// previous-good chain bugfix: with two promoted configurations behind
// it, a drift rollback must step back to the most recently validated
// config — strictly better than the stale initial anchor — instead of
// jumping to the anchor for good. The target is never applied to the
// serving primary unvalidated: it fills a shortened paired window on
// the staged replica (the primary holds the anchor meanwhile) and only
// sticks once the window clears.
func TestDriftRollbackStepsBackThroughChain(t *testing.T) {
	c := newC()
	a, b := []float64{0.6, 0.6}, []float64{0.7, 0.7}
	initial := []float64{0.5, 0.5}
	promote(t, c, a, 0)
	promote(t, c, b, 10)
	if got := len(c.st.Chain); got != 1 {
		t.Fatalf("chain depth after two promotes = %d, want 1 (initial anchor is never pushed)", got)
	}
	// Three consecutive below-τ intervals on the promoted config: the
	// old controller reverted to the initial anchor here and stayed.
	var d string
	for i := 0; i < 3; i++ {
		d = c.ObserveSteady(20+i, b, 80, 98, false)
	}
	if d != EventChainRollback {
		t.Fatalf("drift decision = %q, want chain_rollback", d)
	}
	if !slices.Equal(c.Candidate(), a) {
		t.Fatalf("revalidation target = %v, want the previously promoted %v", c.Candidate(), a)
	}
	if !slices.Equal(c.LastGood(), initial) {
		t.Fatalf("primary during probation = %v, want the anchor %v (the target must not serve unvalidated)", c.LastGood(), initial)
	}
	st := c.Status()
	if st.Phase != PhaseRevalidate || st.ChainDepth != 0 {
		t.Fatalf("status after chain rollback: phase %q depth %d", st.Phase, st.ChainDepth)
	}
	if st.LastEvent == nil || st.LastEvent.Kind != EventChainRollback || st.LastEvent.ChainDepth != 1 {
		t.Fatalf("chain rollback provenance: %+v", st.LastEvent)
	}
	primary, staged, phase, ok := c.Hold()
	if !ok || phase != PhaseRevalidate || !slices.Equal(primary, initial) || !slices.Equal(staged, a) {
		t.Fatalf("hold during revalidation: primary %v staged %v phase %q ok %v", primary, staged, phase, ok)
	}
	// The target re-validates over a paired (Window+1)/2 = 2 window.
	if d := c.ObservePair(23, 98, 105, 98, false, false); d != "" {
		t.Fatalf("revalidation pair decided %q", d)
	}
	if c.Phase() != PhaseRevalidate {
		t.Fatal("one clean pair must not finish revalidation")
	}
	if d := c.ObservePair(24, 98, 105, 98, false, false); d != EventPromote {
		t.Fatalf("clean revalidation window decided %q, want promote", d)
	}
	if c.Phase() != PhaseSteady {
		t.Fatalf("phase after clean revalidation = %q, want steady", c.Phase())
	}
	if !slices.Equal(c.LastGood(), a) {
		t.Fatal("revalidated target must stick")
	}
	if len(c.st.Chain) != 0 {
		t.Fatalf("re-promoting from the anchor must not grow the chain, depth = %d", len(c.st.Chain))
	}
}

// TestDriftRollbackChainExhaustedRevertsToInitial pins the pre-chain
// behavior as the chain's base case: with nothing promoted behind the
// decayed config, the drift rollback reverts to the initial anchor with
// the classic rollback event.
func TestDriftRollbackChainExhaustedRevertsToInitial(t *testing.T) {
	c := newC()
	promote(t, c, []float64{0.6, 0.6}, 0)
	var d string
	for i := 0; i < 3; i++ {
		d = c.ObserveSteady(10+i, []float64{0.6, 0.6}, 80, 98, false)
	}
	if d != EventRollback {
		t.Fatalf("drift decision = %q, want rollback (chain empty)", d)
	}
	if !slices.Equal(c.LastGood(), []float64{0.5, 0.5}) {
		t.Fatalf("exhausted chain must revert to the initial anchor, got %v", c.LastGood())
	}
	if c.Phase() != PhaseSteady {
		t.Fatalf("the trusted anchor needs no revalidation, phase = %q", c.Phase())
	}
}

// TestRevalidationFailurePopsChainAgain: a chain target that cannot
// clear its paired probation window is discarded and the next chain
// entry staged in its place, down to the anchor once the chain runs
// dry — the serving primary holds the anchor throughout the walk.
func TestRevalidationFailurePopsChainAgain(t *testing.T) {
	c := newC()
	a, b, cc := []float64{0.6, 0.6}, []float64{0.7, 0.7}, []float64{0.8, 0.8}
	initial := []float64{0.5, 0.5}
	promote(t, c, a, 0)
	promote(t, c, b, 10)
	promote(t, c, cc, 20)
	if len(c.st.Chain) != 2 {
		t.Fatalf("chain depth = %d, want 2", len(c.st.Chain))
	}
	var d string
	for i := 0; i < 3; i++ {
		d = c.ObserveSteady(30+i, cc, 80, 98, false)
	}
	if d != EventChainRollback || !slices.Equal(c.Candidate(), b) {
		t.Fatalf("first drift: %q staging %v", d, c.Candidate())
	}
	// B regresses through its paired probation window: pop to A.
	if d := c.ObservePair(33, 98, 90, 98, false, false); d != "" {
		t.Fatalf("first probation pair decided %q", d)
	}
	if d := c.ObservePair(34, 98, 90, 98, false, false); d != EventChainRollback {
		t.Fatalf("failed probation window decision = %q, want chain_rollback", d)
	}
	if !slices.Equal(c.Candidate(), a) || !slices.Equal(c.LastGood(), initial) {
		t.Fatalf("second target = %v (primary %v), want %v staged over the anchor", c.Candidate(), c.LastGood(), a)
	}
	if ev := c.Status().LastEvent; ev == nil || ev.ChainDepth != 1 {
		t.Fatalf("probation-failure provenance: %+v", ev)
	}
	// A outright fails on the staged replica: the chain is exhausted,
	// classic rollback — the primary stays at the initial anchor.
	if d := c.ObservePair(35, 98, 90, 98, false, true); d != EventRollback {
		t.Fatalf("exhausted-chain decision = %q, want rollback", d)
	}
	if !slices.Equal(c.LastGood(), initial) || c.Candidate() != nil || c.Phase() != PhaseSteady {
		t.Fatalf("final state: %v candidate %v phase %q", c.LastGood(), c.Candidate(), c.Phase())
	}
	if got := c.Status().Rollbacks; got != 3 {
		t.Fatalf("rollbacks = %d, want 3", got)
	}
}

// TestChainBounded: the chain keeps at most DefaultMaxChain entries,
// dropping the oldest.
func TestChainBounded(t *testing.T) {
	c := NewController(Policy{Window: 1}, []float64{0.5})
	for i := 0; i < DefaultMaxChain+3; i++ {
		promote(t, c, []float64{0.5 + 0.01*float64(i+1)}, i*10)
	}
	if len(c.st.Chain) != DefaultMaxChain {
		t.Fatalf("chain depth = %d, want DefaultMaxChain=%d", len(c.st.Chain), DefaultMaxChain)
	}
}

// TestBlueGreenSwitchover drives the bluegreen mode end to end: tuning
// phase on the green replica, promotion triggering an explicit
// switchover with the roles swapping, the cost (downtime, in-flight
// failures) recorded into the metrics, and post-switch recovery time
// measured until throughput re-clears τ.
func TestBlueGreenSwitchover(t *testing.T) {
	c := NewController(Policy{Mode: ModeBlueGreen, Window: 2}, []float64{0.5, 0.5})
	cand := []float64{0.7, 0.7}
	c.Submit(cand)
	if c.Phase() != PhaseTuning {
		t.Fatalf("bluegreen staged phase = %q, want tuning", c.Phase())
	}
	st := c.Status()
	if st.Mode != ModeBlueGreen || len(st.Replicas) != 2 {
		t.Fatalf("status: mode %q replicas %+v", st.Mode, st.Replicas)
	}
	if st.Replicas[0].Name != "blue" || st.Replicas[0].Role != RoleServing ||
		st.Replicas[1].Name != "green" || st.Replicas[1].Role != RoleStaged {
		t.Fatalf("replica roles before switchover: %+v", st.Replicas)
	}
	c.ObservePair(0, 100, 120, 98, false, false)
	if d := c.ObservePair(1, 100, 120, 98, false, false); d != EventPromote {
		t.Fatalf("decision = %q, want promote", d)
	}
	if c.Phase() != PhaseSwitchover {
		t.Fatalf("phase after bluegreen promote = %q, want switchover", c.Phase())
	}
	if !slices.Equal(c.LastGood(), cand) {
		t.Fatal("promoted candidate must be the serving configuration")
	}
	if got := c.Status().Replicas[0].Name; got != "green" {
		t.Fatalf("serving replica after swap = %q, want green", got)
	}
	// The switchover interval dips below τ (cache-cold): downtime 1.
	if d := c.ObserveSteady(2, cand, 60, 98, false); d != EventSwitchover {
		t.Fatalf("switchover completion decision = %q", d)
	}
	m := c.Status().Metrics
	if m.Switchovers != 1 || m.SwitchoverDowntime.Count != 1 || m.SwitchoverDowntime.Sum != 1 {
		t.Fatalf("switchover metrics: %+v", m)
	}
	ev := c.Status().LastEvent
	if ev.Kind != EventSwitchover || ev.Downtime != 1 || ev.InFlightFailures != 0 {
		t.Fatalf("switchover event: %+v", ev)
	}
	// Still cold one more interval, then recovered: recovery time 1.
	c.ObserveSteady(3, cand, 90, 98, false)
	c.ObserveSteady(4, cand, 110, 98, false)
	m = c.Status().Metrics
	if m.SwitchoverRecovery.Count != 1 || m.SwitchoverRecovery.Sum != 1 {
		t.Fatalf("recovery metrics: %+v", m.SwitchoverRecovery)
	}
	if c.Phase() != PhaseSteady {
		t.Fatalf("phase after recovery = %q", c.Phase())
	}
	// Promote latency was recorded for the 2-pair window.
	if m.PromoteLatency.Count != 1 || m.PromoteLatency.Sum != 2 {
		t.Fatalf("promote latency: %+v", m.PromoteLatency)
	}
}

// TestBlueGreenInFlightFailure counts a failed interval during the
// one-interval switchover window into the in-flight metric.
func TestBlueGreenInFlightFailure(t *testing.T) {
	c := NewController(Policy{Mode: ModeBlueGreen, Window: 1}, []float64{0.5})
	c.Submit([]float64{0.7})
	if d := c.ObservePair(0, 100, 120, 98, false, false); d != EventPromote {
		t.Fatal("setup: promote")
	}
	if d := c.ObserveSteady(1, []float64{0.7}, 0, 98, true); d != EventSwitchover {
		t.Fatalf("completion = %q", d)
	}
	m := c.Status().Metrics
	if m.InFlightFailures != 1 {
		t.Fatalf("in-flight failures = %d, want 1", m.InFlightFailures)
	}
	ev := c.Status().LastEvent
	if ev.Downtime != 1 || ev.InFlightFailures != 1 {
		t.Fatalf("switchover event cost: %+v", ev)
	}
	// The next interval clears τ, so recovery closes at 0 intervals.
	c.ObserveSteady(2, []float64{0.7}, 110, 98, false)
	if m := c.Status().Metrics; m.SwitchoverRecovery.Count != 1 || m.SwitchoverRecovery.Sum != 0 {
		t.Fatalf("recovery: %+v", m.SwitchoverRecovery)
	}
}

// TestHistogramBuckets pins the bucket edges and counters.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram()
	for _, v := range []int{1, 4, 100} {
		h.Observe(v)
	}
	if h.Count != 3 || h.Sum != 105 || h.Max != 100 {
		t.Fatalf("histogram counters: %+v", h)
	}
	// 1 → bucket ≤1 (index 0); 4 → ≤5 (index 3); 100 → overflow (last).
	if h.Counts[0] != 1 || h.Counts[3] != 1 || h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("histogram buckets: %+v", h.Counts)
	}
}

// TestPolicyModeDefaults: Validate accepts the defaulted and both named
// modes and rejects any other.
func TestPolicyModeDefaults(t *testing.T) {
	for _, mode := range []string{"", ModeCanary, ModeBlueGreen} {
		if err := (Policy{Mode: mode}).Validate(); err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
	}
	if err := (Policy{Mode: "purple"}).Validate(); err == nil {
		t.Fatal("Validate accepted an unknown mode")
	}
}

// TestPromoteMarginHoldsBorderlineCandidate: with a PromoteMargin the
// staged mean must clear τ by the margin, not merely touch it — the
// borderline candidate is discarded; without the margin it promotes.
func TestPromoteMarginHoldsBorderlineCandidate(t *testing.T) {
	mk := func(margin float64) *Controller {
		return NewController(Policy{Window: 1, PromoteMargin: margin}, []float64{0.5})
	}
	c := mk(0.02)
	c.Submit([]float64{0.7})
	// sm=99 touches τ=98 (and the primary mean) but misses 98·1.02.
	if d := c.ObservePair(0, 100, 99, 98, false, false); d != EventRollback {
		t.Fatalf("borderline candidate with margin decided %q, want rollback", d)
	}
	c.Submit([]float64{0.7})
	if d := c.ObservePair(1, 100, 101, 98, false, false); d != EventPromote {
		t.Fatalf("clearing candidate with margin decided %q, want promote", d)
	}
	c = mk(0)
	c.Submit([]float64{0.7})
	if d := c.ObservePair(0, 100, 99, 98, false, false); d != EventPromote {
		t.Fatalf("margin-free borderline candidate decided %q, want promote (legacy behavior)", d)
	}
}
