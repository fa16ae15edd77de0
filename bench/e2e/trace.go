package main

import (
	"time"

	"repro/internal/core"
)

// span is one traced call: a layer serving one op. Peeled stacks run an
// op one after another, not nested in time, so parent names the layer
// whose span this one would sit inside in the real stack; a layer's self
// time is its span minus its child's.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
}

// tracer collects the spans of a traced lap in memory.
type tracer struct {
	origin time.Time
	lay    layout
	spans  []span
	layers []string // layer of stack k

	// stage is the core stage clock last seen per tuner; busy sums the
	// spans of the measured region by name.
	stage map[*bareTuner]core.StageTimes
	busy  map[string]int64
	// hydrateNS holds every hydration seen in the measured region.
	hydrateNS []int64
}

func newTracer(lay layout) *tracer {
	return &tracer{
		origin: time.Now(), lay: lay,
		stage: map[*bareTuner]core.StageTimes{},
		busy:  map[string]int64{},
	}
}

func (tr *tracer) add(name string, op int, start time.Time, ns int64, parent string) time.Time {
	end := start.Add(time.Duration(ns))
	tr.spans = append(tr.spans, span{
		Name: name, Op: op, Parent: parent,
		StartNS: start.Sub(tr.origin).Nanoseconds(), EndNS: end.Sub(tr.origin).Nanoseconds(),
	})
	if op >= tr.lay.warmEnd() && op < tr.lay.reopen() {
		tr.busy[name] += ns
	}
	return end
}

// op records stack k's span for an op, and the child spans the stack can
// see inside it: the hydration a residency-bound manager ran first, the
// featurizer and core stages of a bare tuner.
func (tr *tracer) op(k int, s stack, op int, t0, t1 time.Time) {
	for len(tr.layers) <= k {
		tr.layers = append(tr.layers, s.layer())
	}
	parent := ""
	if k > 0 {
		parent = tr.layers[k-1]
	}
	name := s.layer()
	tr.add(name, op, t0, t1.Sub(t0).Nanoseconds(), parent)
	switch s := s.(type) {
	case *managerStack:
		if s.hydrateNs > 0 {
			tr.add("manager.hydrate", op, t0, s.hydrateNs, name)
			if op >= tr.lay.warmEnd() && op < tr.lay.reopen() {
				tr.hydrateNS = append(tr.hydrateNS, s.hydrateNs)
			}
			s.hydrateNs = 0
		}
	case *tunerStack:
		if s.last == nil {
			return
		}
		at := t0
		if s.lastFeatNs > 0 {
			at = tr.add("featurize.context", op, at, s.lastFeatNs, name)
		}
		now, was := s.timings(), tr.stage[s.last]
		tr.stage[s.last] = now
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{"core.model_select", now.ModelSelect - was.ModelSelect},
			{"core.subspace_adapt", now.SubspaceAdapt - was.SubspaceAdapt},
			{"core.safety_assess", now.SafetyAssess - was.SafetyAssess},
			{"core.candidate_select", now.CandidateSelect - was.CandidateSelect},
			{"core.model_update", now.ModelUpdate - was.ModelUpdate},
		} {
			if st.d > 0 {
				at = tr.add(st.name, op, at, st.d.Nanoseconds(), name)
			}
		}
	}
}
