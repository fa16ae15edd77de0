// Package repo is OnlineTune's data repository (Appendix A1): the store
// of historical ⟨context, configuration, performance⟩ observations kept
// on the tuning server. A session's state checkpoint carries it (State),
// so tuning sessions resume.
package repo

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/mathx"
)

// Observation is one tuning-iteration record. Its vectors encode
// exactly and compactly in JSON (mathx.Floats).
type Observation struct {
	Iter    int          `json:"iter"`
	Context mathx.Floats `json:"context"`
	Unit    mathx.Floats `json:"unit"` // configuration in unit encoding
	Perf    float64      `json:"perf"`
	Tau     float64      `json:"tau"`  // safety threshold at that iteration
	Safe    bool         `json:"safe"` // measured perf ≥ τ
	Failed  bool         `json:"failed"`
}

// Repo stores observations. Safe for concurrent use. A positive cap
// bounds memory: once full, Add evicts the oldest observations first.
type Repo struct {
	mu  sync.RWMutex
	cap int // 0 = unbounded
	st  State
}

// State is a repository's contents and lifetime counters.
type State struct {
	Obs     []Observation `json:"obs,omitempty"`
	Added   int64         `json:"added"`
	Evicted int64         `json:"evicted"`
}

// Stats reports lifetime counters alongside the current size.
type Stats struct {
	Len     int   `json:"len"`
	Cap     int   `json:"cap"`
	Added   int64 `json:"added"`
	Evicted int64 `json:"evicted"`
}

// New returns an empty unbounded repository.
func New() *Repo { return &Repo{} }

// NewBounded returns an empty repository holding at most cap
// observations; cap <= 0 means unbounded.
func NewBounded(cap int) *Repo {
	if cap < 0 {
		cap = 0
	}
	return &Repo{cap: cap}
}

// Add appends one observation, evicting the oldest if the repository is
// at capacity. It returns how many observations were evicted (0 or 1)
// so callers keeping parallel per-observation state can trim it.
func (r *Repo) Add(o Observation) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.st.Added++
	ev := 0
	if r.cap > 0 && len(r.st.Obs) >= r.cap {
		// Shift in place: the slice never grows past cap, so the copy
		// is bounded and the backing array is reused.
		n := copy(r.st.Obs, r.st.Obs[1:])
		r.st.Obs = r.st.Obs[:n]
		ev = 1
		r.st.Evicted++
	}
	r.st.Obs = append(r.st.Obs, o)
	return ev
}

// Stats returns the repository's size and lifetime counters.
func (r *Repo) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Stats{Len: len(r.st.Obs), Cap: r.cap, Added: r.st.Added, Evicted: r.st.Evicted}
}

// State returns a copy of the repository's state.
func (r *Repo) State() State {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := r.st
	st.Obs = slices.Clone(st.Obs)
	return st
}

// SetState installs an exported state, rejecting one that breaks the
// repository's cap or its counters' invariant (added = evicted + held).
func (r *Repo) SetState(st State) error {
	if (r.cap > 0 && len(st.Obs) > r.cap) || st.Evicted < 0 || st.Added != st.Evicted+int64(len(st.Obs)) {
		return fmt.Errorf("repo: %d observations, %d added and %d evicted do not fit cap %d", len(st.Obs), st.Added, st.Evicted, r.cap)
	}
	r.mu.Lock()
	r.st = st
	r.mu.Unlock()
	return nil
}

// Len returns the number of stored observations.
func (r *Repo) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.st.Obs)
}

// All returns a copy of all observations.
func (r *Repo) All() []Observation {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Observation, len(r.st.Obs))
	copy(out, r.st.Obs)
	return out
}

// Contexts returns all stored context vectors (copies).
func (r *Repo) Contexts() [][]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([][]float64, len(r.st.Obs))
	for i, o := range r.st.Obs {
		c := make([]float64, len(o.Context))
		copy(c, o.Context)
		out[i] = c
	}
	return out
}
