package core

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/whitebox"
)

// StoppingTuner implements the extension sketched in the paper's
// conclusion (§8): OnlineTune keeps its per-iteration workflow — context
// featurization and acquisition-value computation — but *pauses* actual
// reconfiguration once no candidate promises meaningful improvement over
// the applied configuration. Configuring is re-triggered when a
// candidate's Expected Improvement against the applied configuration
// exceeds a threshold, which is exactly what happens when the context
// shifts and the applied configuration stops being suitable.
type StoppingTuner struct {
	T *OnlineTune
	// EITrigger is the relative Expected Improvement (fraction of |τ|)
	// that re-triggers configuring.
	EITrigger float64
	// Patience is how many consecutive low-EI iterations are required
	// before pausing.
	Patience int

	StoppingState
}

// StoppingState is a StoppingTuner's pause/trigger bookkeeping.
type StoppingState struct {
	Applied   []float64 `json:"applied,omitempty"`
	LowStreak int       `json:"low_streak,omitempty"`
	Holding   bool      `json:"paused,omitempty"`
	// PauseCount / ChangeCount instrument how often the mechanism held
	// the configuration steady vs reconfigured.
	PauseCount  int `json:"pause_count,omitempty"`
	ChangeCount int `json:"change_count,omitempty"`
}

// SetState installs exported bookkeeping, rejecting an applied
// configuration that does not fit the space.
func (s *StoppingTuner) SetState(st StoppingState) error {
	if (st.Applied != nil && len(st.Applied) != s.T.Space.Dim()) || st.LowStreak < 0 {
		return fmt.Errorf("core: stopping state does not fit a %d-knob space", s.T.Space.Dim())
	}
	s.StoppingState = st
	return nil
}

// NewStoppingTuner wraps an OnlineTune with the pause/trigger policy.
func NewStoppingTuner(t *OnlineTune, eiTrigger float64, patience int) *StoppingTuner {
	return &StoppingTuner{T: t, EITrigger: eiTrigger, Patience: patience}
}

// Paused reports whether the tuner is currently holding the applied
// configuration.
func (s *StoppingTuner) Paused() bool { return s.Holding }

// Recommend either holds the applied configuration (paused) or delegates
// to OnlineTune. The EI computation runs every iteration regardless, as
// the paper describes.
func (s *StoppingTuner) Recommend(ctx []float64, env whitebox.Env, tau float64) Recommendation {
	if s.Applied != nil {
		ei := s.T.ExpectedImprovementOver(ctx, s.Applied)
		trigger := s.EITrigger * math.Abs(tau)
		if ei < trigger {
			s.LowStreak++
		} else {
			s.LowStreak = 0
			s.Holding = false
		}
		if s.LowStreak >= s.Patience {
			s.Holding = true
		}
		if s.Holding {
			s.PauseCount++
			u := mathx.VecClone(s.Applied)
			rec := Recommendation{Unit: u, Config: s.T.Space.Decode(u), Fallback: true, RegionKind: "paused"}
			s.T.setLastRec(&rec)
			return rec
		}
	}
	rec := s.T.Recommend(ctx, env, tau)
	s.Applied = mathx.VecClone(rec.Unit)
	s.ChangeCount++
	return rec
}

// Observe forwards the measurement to OnlineTune (the model keeps
// learning even while paused).
func (s *StoppingTuner) Observe(iter int, ctx, unit []float64, perf, tau float64, failed bool) {
	s.T.Observe(iter, ctx, unit, perf, tau, failed)
	if failed || perf < tau {
		// An unsafe interval always resumes configuring.
		s.Holding = false
		s.LowStreak = 0
	}
}

// ExpectedImprovementOver returns the maximum Expected Improvement of
// any subspace candidate against the posterior mean of the applied
// configuration under the given context.
func (o *OnlineTune) ExpectedImprovementOver(ctx []float64, applied []float64) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	mi := o.selectModel(ctx)
	m := o.models[mi]
	if m.gp.Len() == 0 {
		return math.Inf(1) // no model yet: always configure
	}
	muApplied, _ := m.gp.Predict(applied, ctx)

	var candidates [][]float64
	if region := m.adapter.Region(); region != nil && o.Opts.UseSubspace {
		candidates = region.Candidates(40, o.rng)
	} else {
		candidates = o.globalCandidates(40)
	}
	best := 0.0
	for _, c := range candidates {
		mu, v := m.gp.Predict(o.Space.Quantize(c), ctx)
		sigma := math.Sqrt(v)
		if sigma < 1e-12 {
			continue
		}
		z := (mu - muApplied) / sigma
		ei := (mu-muApplied)*mathx.NormalCDF(z) + sigma*mathx.NormalPDF(z)
		if ei > best {
			best = ei
		}
	}
	return best
}
