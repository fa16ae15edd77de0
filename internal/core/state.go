package core

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/gp"
	"repro/internal/mathx"
	"repro/internal/repo"
	"repro/internal/rollout"
	"repro/internal/subspace"
	"repro/internal/svm"
	"repro/internal/whitebox"
)

// State is an OnlineTune's exact state: everything Recommend and Observe
// read that New does not derive from the space, options and seed.
// SetState on a tuner built alike continues it bit for bit; the
// re-cluster distance cache is rebuilt from the repository at the next
// check, and the stage timings start over.
type State struct {
	// Observations is the repository's size, beside the models so that a
	// reader can summarize a snapshot without decoding the repository.
	Observations int             `json:"observations"`
	Models       []ModelSnapshot `json:"models"`
	// Labels is the cluster label of each repository observation.
	Labels     []int      `json:"labels,omitempty"`
	Repo       repo.State `json:"repo"`
	Classifier *svm.State `json:"classifier,omitempty"`
	// Draws is the tuner generator's position.
	Draws  int64 `json:"draws"`
	Reseed bool  `json:"reseed,omitempty"`
	// PendingRule and LastRecRule name the white-box rules bypassed by
	// the recommendation awaiting its outcome and by the last one.
	PendingRule string               `json:"pending_rule,omitempty"`
	LastRec     *Recommendation      `json:"last_rec,omitempty"`
	LastRecRule string               `json:"last_rec_rule,omitempty"`
	WhiteBox    []whitebox.RuleState `json:"white_box"`
	Rollout     *rollout.State       `json:"rollout,omitempty"`
}

// ModelSnapshot is one cluster model's exact state: the GP's training
// observations (units, contexts, raw targets) and conditioning state,
// the incumbent and bookkeeping, the evaluated-configuration keys (the
// model's safe-set memory, hex-encoded and sorted) and the subspace
// adapter's state.
type ModelSnapshot struct {
	Units    [][]float64 `json:"units"`
	Contexts [][]float64 `json:"contexts"`
	Perfs    []float64   `json:"perfs"`
	modelState
	// BestPerf is the incumbent's performance; absent before the first
	// safe observation.
	BestPerf  *float64       `json:"best_perf,omitempty"`
	Evaluated []string       `json:"evaluated,omitempty"`
	GP        gp.State       `json:"gp"`
	Adapter   subspace.State `json:"adapter"`
}

// State returns a copy of the tuner's state.
func (o *OnlineTune) State() State {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := State{
		Observations: o.Repo.Len(),
		Labels:       slices.Clone(o.labels),
		Repo:         o.Repo.State(),
		Draws:        o.src.Draws(),
		Reseed:       o.reseed,
		WhiteBox:     o.White.State(),
	}
	for _, m := range o.models {
		st.Models = append(st.Models, m.snapshot())
	}
	if o.classifier != nil {
		cs := o.classifier.State()
		st.Classifier = &cs
	}
	if o.pendingRule != nil {
		st.PendingRule = o.pendingRule.Name
	}
	if o.lastRec != nil {
		rec := *o.lastRec
		st.LastRec = &rec
		if rec.IgnoredRule != nil {
			st.LastRecRule = rec.IgnoredRule.Name
		}
	}
	if o.roll != nil {
		rs := o.roll.State()
		st.Rollout = &rs
	}
	return st
}

func (m *model) snapshot() ModelSnapshot {
	ms := ModelSnapshot{modelState: m.modelState, Adapter: m.adapter.State()}
	ms.Transfer = slices.Clone(ms.Transfer)
	ms.Units, ms.Contexts, ms.Perfs, ms.GP = m.gp.State()
	if !math.IsInf(m.bestPerf, -1) {
		best := m.bestPerf
		ms.BestPerf = &best
	}
	for k := range m.evaluated {
		ms.Evaluated = append(ms.Evaluated, hex.EncodeToString([]byte(k)))
	}
	sort.Strings(ms.Evaluated)
	return ms
}

// SetState makes a tuner fresh from New the one that exported st after
// at most calls recommendations. A state that does not fit the tuner's
// space, context dimension, rule table or rollout setting is rejected,
// and the tuner must then be discarded.
func (o *OnlineTune) SetState(st State, calls int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	dim := o.Space.Dim()
	n := len(st.Repo.Obs)
	// A restored generator replays its draws at its first draw, so a
	// position must be bounded by what the calls could have drawn, or a
	// corrupt count would stall the first op after the restore: a call
	// samples at most Candidates+80 points (its candidates, the
	// exhaustion probe's 40 and ExpectedImprovementOver's 40) of at most
	// 2·dim draws each, plus a line direction's dim normals at ~1.02
	// draws each. The bound allows four times that.
	maxDraws := int64(calls) * int64(16*(o.Opts.Candidates+80)*(dim+1))
	drawsOK := st.Draws >= 0 && st.Draws <= maxDraws
	for _, ms := range st.Models {
		drawsOK = drawsOK && ms.Adapter.Draws <= maxDraws
	}
	switch {
	case len(st.Models) == 0:
		return errors.New("core: state holds no cluster model")
	case st.Observations != n || len(st.Labels) != n:
		return fmt.Errorf("core: %d observations with %d labels, repository holds %d", st.Observations, len(st.Labels), n)
	case !drawsOK:
		return fmt.Errorf("core: generator positions outside [0, %d] after %d calls", maxDraws, calls)
	case (st.Rollout != nil) != (o.roll != nil):
		return errors.New("core: rollout state does not match the rollout setting")
	}
	for i, ob := range st.Repo.Obs {
		if len(ob.Unit) != dim || len(ob.Context) != o.ctxDim || st.Labels[i] < 0 || st.Labels[i] >= len(st.Models) {
			return fmt.Errorf("core: observation %d does not fit the space or the models", i)
		}
	}
	for _, rs := range st.WhiteBox {
		if int64(rs.Relaxations) > st.Repo.Added {
			return fmt.Errorf("core: %d rule relaxations after %d observations", rs.Relaxations, st.Repo.Added)
		}
	}
	if err := o.Repo.SetState(st.Repo); err != nil {
		return err
	}
	o.models = o.models[:0]
	for i, ms := range st.Models {
		m, err := o.restoreModel(ms)
		if err != nil {
			return fmt.Errorf("core: model %d: %w", i, err)
		}
		o.models = append(o.models, m)
	}
	if cs := st.Classifier; cs != nil {
		for _, c := range cs.Classes {
			if c < 0 || c >= len(o.models) {
				return fmt.Errorf("core: classifier class %d with %d models", c, len(o.models))
			}
		}
		o.classifier = newClassifier()
		if err := o.classifier.SetState(*cs, o.ctxDim); err != nil {
			return err
		}
	}
	o.labels, o.reseed = st.Labels, st.Reseed
	o.src = mathx.NewSource(o.seed, st.Draws)
	o.rng = rand.New(o.src)
	var err error
	if o.pendingRule, err = o.rule(st.PendingRule); err != nil {
		return err
	}
	if rec := st.LastRec; rec != nil {
		if len(rec.Unit) != dim || (rec.ShadowUnit != nil && len(rec.ShadowUnit) != dim) {
			return errors.New("core: last recommendation does not fit the space")
		}
		rec.Config = o.Space.Decode(rec.Unit)
		if rec.ShadowUnit != nil {
			rec.ShadowConfig = o.Space.Decode(rec.ShadowUnit)
		}
		if rec.IgnoredRule, err = o.rule(st.LastRecRule); err != nil {
			return err
		}
		o.lastRec = rec
	}
	if err := o.White.SetState(st.WhiteBox); err != nil {
		return err
	}
	if o.roll != nil {
		return o.roll.SetState(*st.Rollout)
	}
	return nil
}

// restoreModel builds a model as newModelAt does and installs ms on it.
func (o *OnlineTune) restoreModel(ms ModelSnapshot) (*model, error) {
	dim := o.Space.Dim()
	fits := len(ms.BestUnit) == dim && (ms.WarmCenter == nil || len(ms.WarmCenter) == dim) &&
		ms.ObsCount >= 0 && ms.CoolDown >= 0
	for _, u := range ms.Transfer {
		fits = fits && len(u) == dim
	}
	if !fits {
		return nil, errors.New("incumbent, transfers or counters do not fit the space")
	}
	m := o.newModelAt(0, o.initialUnit)
	if err := m.gp.SetState(ms.Units, ms.Contexts, ms.Perfs, ms.GP); err != nil {
		return nil, err
	}
	if err := m.adapter.SetState(ms.Adapter); err != nil {
		return nil, err
	}
	for _, h := range ms.Evaluated {
		k, err := hex.DecodeString(h)
		if err != nil || len(k) != 2*dim {
			return nil, fmt.Errorf("evaluated key %q does not fit the space", h)
		}
		m.evaluated[string(k)] = true
	}
	m.modelState = ms.modelState
	if ms.BestPerf != nil {
		m.bestPerf = *ms.BestPerf
	}
	return m, nil
}

// rule resolves a stored rule name; "" is no rule.
func (o *OnlineTune) rule(name string) (*whitebox.Rule, error) {
	if name == "" {
		return nil, nil
	}
	if r := o.White.Rule(name); r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("core: unknown white-box rule %q", name)
}
