package rollout

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
)

// The bounded model check drives the controller exhaustively over a
// small scope: windows 1–3, three configurations {anchor, a, b}, and
// every paired and steady outcome below at every interval, to a depth
// at which the previous-good chain reaches 2. A canary and a bluegreen
// controller run in lockstep on the same inputs; the bluegreen one also
// takes every outcome of its switchover intervals, which the canary
// never has. States are deduplicated on both controllers' State JSON
// plus the checker's own bookkeeping. After every interval it asserts:
//
//   - the primary (from Hold or Submit) is in the validated set, which
//     starts as {anchor}, gains a candidate at each EventPromote whose
//     window the checker saw fill cleanly, and resets to {anchor} at
//     every drift or primary-failure rollback — so a chain target never
//     serves unvalidated;
//   - SetState(State()) round-trips through JSON byte for byte;
//   - the canary trace equals the bluegreen trace with its switchover
//     intervals removed.

var (
	modelAnchor  = []float64{0.5}
	modelConfigs = [][]float64{modelAnchor, {0.6}, {0.7}}
)

// pairOutcome is one paired interval. A failed replica reports a
// winning number, so only its failure flag can reject it.
type pairOutcome struct {
	primary, staged, tau        float64
	primaryFailed, stagedFailed bool
}

var pairOutcomes = []pairOutcome{
	{primary: 100, staged: 120, tau: 98},                      // staged wins
	{primary: 100, staged: 90, tau: 98},                       // staged regresses
	{primary: 100, staged: 99, tau: 99.5},                     // staged below τ
	{primary: 100, staged: 120, tau: 98, stagedFailed: true},  // staged fails
	{primary: 100, staged: 120, tau: 98, primaryFailed: true}, // primary fails
}

// steadyOutcome is one unpaired measurement of the serving primary.
type steadyOutcome struct {
	perf, tau float64
	failed    bool
}

var steadyOutcomes = []steadyOutcome{
	{perf: 100, tau: 98},               // ok
	{perf: 90, tau: 98},                // below the drift threshold
	{perf: 100, tau: 98, failed: true}, // fails
}

// machine is one controller's state at a node, plus what the checker
// keeps beside it: the validated set as a bitmask over modelConfigs,
// and the outcomes of the window in flight.
type machine struct {
	st        State
	validated uint8
	window    []uint8
}

// step is what one interval showed on a controller: the trace entry
// the lockstep comparison reads.
type step struct {
	phase           Phase
	primary, staged []float64
	event           *Event
}

func configBit(t *testing.T, u []float64) uint8 {
	for i, c := range modelConfigs {
		if slices.Equal(u, c) {
			return 1 << i
		}
	}
	t.Fatalf("configuration %v is outside the model", u)
	return 0
}

func mustJSON(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// controller resumes a controller at a machine's state.
func (m machine) controller(t *testing.T, p Policy) *Controller {
	c := NewController(p, modelAnchor)
	if err := c.SetState(m.st); err != nil {
		t.Fatal(err)
	}
	return c
}

// roundTrip asserts that SetState(State()) through JSON reproduces the
// state byte for byte.
func roundTrip(t *testing.T, p Policy, st State) {
	b := mustJSON(t, st)
	var back State
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if b2 := mustJSON(t, machine{st: back}.controller(t, p).State()); string(b2) != string(b) {
		t.Fatalf("state does not round-trip:\n%s\n%s", b, b2)
	}
}

// decisionJSON is the JSON of st without the fields that feed no
// decision — counters, metrics, the last event, the latency start and
// the switchover cost tallies — so two states it equates have the same
// futures.
func decisionJSON(t *testing.T, st State) []byte {
	st.Promotions, st.Rollbacks, st.Metrics, st.LastEvent = 0, 0, Metrics{}, nil
	st.StagedStart, st.SwitchDowntime, st.SwitchFailures = 0, 0, 0
	st.Recovering, st.RecoverIntervals = false, 0
	return mustJSON(t, st)
}

// promotesCleanly is the checker's own promotion rule: a full window
// with no failed interval whose staged mean clears both the primary
// mean (less the regression threshold) and τ.
func promotesCleanly(window []uint8, need int) bool {
	if len(window) != need {
		return false
	}
	var pm, sm, tm float64
	for _, k := range window {
		o := pairOutcomes[k]
		if o.primaryFailed || o.stagedFailed {
			return false
		}
		pm, sm, tm = pm+o.primary, sm+o.staged, tm+o.tau
	}
	n := float64(len(window))
	pm, sm, tm = pm/n, sm/n, tm/n
	return sm >= pm-DefaultThreshold*math.Abs(pm) && sm >= tm
}

// interval drives one interval on c: the hold or a Submit of submit,
// then the pair outcome k (when a candidate is staged) or the steady
// outcome k. It updates the checker's bookkeeping in m and asserts the
// validated-set invariant.
func interval(t *testing.T, c *Controller, m *machine, iter int, submit []float64, k int) step {
	var s step
	revalidating := c.Phase() == PhaseRevalidate
	held := false
	if p, st, ph, ok := c.Hold(); ok {
		s.primary, s.staged, s.phase, held = p, st, ph, true
	} else {
		s.primary, s.staged = c.Submit(submit)
		s.phase = c.Phase()
	}
	if m.validated&configBit(t, s.primary) == 0 {
		t.Fatalf("iter %d: primary %v serves unvalidated (validated %03b)", iter, s.primary, m.validated)
	}
	if s.staged != nil && !held {
		m.window = nil
	}
	var kind string
	resetValidated := false
	if s.staged != nil {
		o := pairOutcomes[k]
		m.window = append(slices.Clone(m.window), uint8(k))
		kind = c.ObservePair(iter, o.primary, o.staged, o.tau, o.primaryFailed, o.stagedFailed)
		resetValidated = o.primaryFailed && kind == EventRollback
	} else {
		o := steadyOutcomes[k]
		kind = c.ObserveSteady(iter, s.primary, o.perf, o.tau, o.failed)
		resetValidated = kind == EventRollback || kind == EventChainRollback
	}
	if kind != "" {
		s.event = c.st.LastEvent
		if kind == EventPromote {
			need := c.policy.Window
			if revalidating {
				need = c.revalWindow()
			}
			if !promotesCleanly(m.window, need) {
				t.Fatalf("iter %d: promoted %v on window %v, which does not validate it", iter, s.event.Candidate, m.window)
			}
			m.validated |= configBit(t, s.event.Candidate)
		}
		if resetValidated {
			m.validated = configBit(t, modelAnchor)
		}
		m.window = nil
	}
	if m.validated&configBit(t, c.LastGood()) == 0 {
		t.Fatalf("iter %d: last-good %v is unvalidated after %q (validated %03b)", iter, c.LastGood(), kind, m.validated)
	}
	m.st = c.State()
	return s
}

type node struct{ canary, bluegreen machine }

func (n node) key(t *testing.T) string {
	var b []byte
	for _, m := range []machine{n.canary, n.bluegreen} {
		b = append(b, decisionJSON(t, m.st)...)
		b = append(b, 0, m.validated)
		b = append(b, m.window...)
		b = append(b, 0xff)
	}
	return string(b)
}

// modelStats is what a search covered.
type modelStats struct {
	states, depth, maxChain int
	events                  map[string]int
}

// checkModel explores window w breadth first until no new state turns
// up or depth intervals have run, and returns what it covered.
func checkModel(t *testing.T, w, depth int) modelStats {
	canaryPolicy := Policy{Mode: ModeCanary, Window: w}
	bgPolicy := Policy{Mode: ModeBlueGreen, Window: w}
	fresh := func(p Policy) machine {
		return machine{st: NewController(p, modelAnchor).State(), validated: configBit(t, modelAnchor)}
	}
	root := node{fresh(canaryPolicy), fresh(bgPolicy)}
	seen := map[string]bool{root.key(t): true}
	stats := modelStats{states: 1, events: map[string]int{}}
	level := []node{root}
	for ; stats.depth < depth && len(level) > 0; stats.depth++ {
		iter := stats.depth
		var next []node
		push := func(n node) {
			if k := n.key(t); !seen[k] {
				seen[k] = true
				roundTrip(t, canaryPolicy, n.canary.st)
				roundTrip(t, bgPolicy, n.bluegreen.st)
				stats.states++
				stats.maxChain = max(stats.maxChain, len(n.canary.st.Chain))
				next = append(next, n)
			}
		}
		for _, n := range level {
			probe := n.canary.controller(t, canaryPolicy)
			submits := [][]float64{nil}
			if _, _, _, held := probe.Hold(); !held {
				submits = modelConfigs
			}
			for _, sub := range submits {
				outcomes := len(steadyOutcomes)
				if probe.Candidate() != nil || (sub != nil && !slices.Equal(sub, probe.LastGood())) {
					outcomes = len(pairOutcomes)
				}
				for k := 0; k < outcomes; k++ {
					cm, bm := n.canary, n.bluegreen
					cc, bc := cm.controller(t, canaryPolicy), bm.controller(t, bgPolicy)
					cs := interval(t, cc, &cm, iter, sub, k)
					bs := interval(t, bc, &bm, iter, sub, k)
					if !reflect.DeepEqual(cs, bs) {
						t.Fatalf("window %d iter %d: canary and bluegreen traces differ\ncanary:    %+v %+v\nbluegreen: %+v %+v",
							w, iter, cs, cs.event, bs, bs.event)
					}
					if cs.event != nil {
						stats.events[cs.event.Kind]++
					}
					if cc.Phase() == PhaseSwitchover {
						t.Fatalf("window %d iter %d: canary entered the switchover phase", w, iter)
					}
					if bc.Phase() != PhaseSwitchover {
						push(node{cm, bm})
						continue
					}
					// The bluegreen switchover interval, which the canary
					// trace does not have, carries the promote's iter.
					for j := range steadyOutcomes {
						sm := bm
						sc := sm.controller(t, bgPolicy)
						ss := interval(t, sc, &sm, iter, nil, j)
						if ss.phase != PhaseSwitchover || ss.event == nil || ss.event.Kind != EventSwitchover || sc.Phase() == PhaseSwitchover {
							t.Fatalf("window %d iter %d: switchover interval %+v left phase %q", w, iter, ss, sc.Phase())
						}
						stats.events[EventSwitchover]++
						push(node{cm, sm})
					}
				}
			}
		}
		level = next
	}
	return stats
}

// TestModelCheckOneMachine runs the bounded model check for windows 1–3.
func TestModelCheckOneMachine(t *testing.T) {
	start := time.Now()
	total := 0
	for w := 1; w <= 3; w++ {
		st := checkModel(t, w, 4*w+2)
		t.Logf("window %d: %d states explored to depth %d, max chain %d, events %v", w, st.states, st.depth, st.maxChain, st.events)
		if st.maxChain < 2 {
			t.Errorf("window %d: the chain never reached 2 within %d intervals", w, st.depth)
		}
		for _, kind := range []string{EventPromote, EventRollback, EventSwitchover, EventChainRollback} {
			if st.events[kind] == 0 {
				t.Errorf("window %d: no %s event within %d intervals", w, kind, st.depth)
			}
		}
		total += st.states
	}
	t.Logf("%d states explored in %v", total, time.Since(start).Round(time.Millisecond))
}
