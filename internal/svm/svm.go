// Package svm implements a kernel support-vector classifier trained with
// a simplified SMO algorithm, plus the one-vs-rest multiclass wrapper
// OnlineTune uses to learn the context-space decision boundary for model
// selection (§5.3).
package svm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/mathx"
)

// Kernel computes an inner product in feature space.
type Kernel func(a, b []float64) float64

// RBFKernel returns an RBF kernel with bandwidth gamma.
func RBFKernel(gamma float64) Kernel {
	return func(a, b []float64) float64 {
		d := mathx.Dist2(a, b)
		return math.Exp(-gamma * d * d)
	}
}

// LinearKernel is the plain dot product.
func LinearKernel() Kernel {
	return func(a, b []float64) float64 { return mathx.Dot(a, b) }
}

// Binary is a two-class SVM with labels in {-1, +1}.
type Binary struct {
	C     float64 // box constraint
	Kern  Kernel
	Tol   float64
	MaxIt int
	Fitted
}

// Fitted is a trained binary SVM: its support vectors (the training
// points whose multiplier is non-zero, in training order), their labels
// and multipliers, and the bias. Decision sums over exactly these, so
// keeping only them changes no decision value.
type Fitted struct {
	X      [][]float64 `json:"x,omitempty"`
	Y      []float64   `json:"y,omitempty"`
	Alphas []float64   `json:"alphas,omitempty"`
	B      float64     `json:"b"`
}

// NewBinary returns a binary SVM with the given box constraint and kernel.
func NewBinary(c float64, k Kernel) *Binary {
	return &Binary{C: c, Kern: k, Tol: 1e-3, MaxIt: 60}
}

// Fit trains on x with labels y ∈ {-1, +1} using simplified SMO
// (Platt, 1998; the Stanford CS229 variant). seed randomizes the second
// working-set choice.
func (s *Binary) Fit(x [][]float64, y []float64, seed int64) {
	s.fit(x, y, gram(s.Kern, x), seed)
}

// gram is x's kernel matrix; training sets here are small (the cluster
// count times per-cluster cap).
func gram(kern Kernel, x [][]float64) *mathx.Matrix {
	k := mathx.NewMatrix(len(x), len(x))
	for i := range x {
		for j := i; j < len(x); j++ {
			v := kern(x[i], x[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	return k
}

// fit runs SMO given x's kernel matrix k.
func (s *Binary) fit(x [][]float64, y []float64, k *mathx.Matrix, seed int64) {
	n := len(x)
	s.Fitted = Fitted{Alphas: make([]float64, n)}
	if n == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))

	// f(i) sums over the non-zero multipliers in ascending index order —
	// the terms and order of a full scan — and is cached until the next
	// update: most passes change nothing.
	var nz []int
	fv, fresh := make([]float64, n), make([]bool, n)
	f := func(i int) float64 {
		if !fresh[i] {
			fv[i], fresh[i] = s.B, true
			for _, j := range nz {
				fv[i] += s.Alphas[j] * y[j] * k.At(j, i)
			}
		}
		return fv[i]
	}

	passes := 0
	for passes < s.MaxIt {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if !((y[i]*ei < -s.Tol && s.Alphas[i] < s.C) || (y[i]*ei > s.Tol && s.Alphas[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - y[j]
			ai, aj := s.Alphas[i], s.Alphas[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(s.C, s.C+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-s.C)
				hi = math.Min(s.C, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*k.At(i, j) - k.At(i, i) - k.At(j, j)
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			ajNew = mathx.Clamp(ajNew, lo, hi)
			if math.Abs(ajNew-aj) < 1e-5 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)
			b1 := s.B - ei - y[i]*(aiNew-ai)*k.At(i, i) - y[j]*(ajNew-aj)*k.At(i, j)
			b2 := s.B - ej - y[i]*(aiNew-ai)*k.At(i, j) - y[j]*(ajNew-aj)*k.At(j, j)
			switch {
			case aiNew > 0 && aiNew < s.C:
				s.B = b1
			case ajNew > 0 && ajNew < s.C:
				s.B = b2
			default:
				s.B = (b1 + b2) / 2
			}
			s.Alphas[i], s.Alphas[j] = aiNew, ajNew
			nz = nz[:0]
			for l, a := range s.Alphas {
				if a != 0 {
					nz = append(nz, l)
				}
			}
			clear(fresh)
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	sv := Fitted{B: s.B}
	for i, a := range s.Alphas {
		if a != 0 {
			sv.X, sv.Y, sv.Alphas = append(sv.X, x[i]), append(sv.Y, y[i]), append(sv.Alphas, a)
		}
	}
	s.Fitted = sv
}

// Decision returns the signed decision value for a point.
func (s *Binary) Decision(p []float64) float64 {
	out := s.B
	for i, a := range s.Alphas {
		if a != 0 {
			out += a * s.Y[i] * s.Kern(s.X[i], p)
		}
	}
	return out
}

// Predict returns the predicted label in {-1, +1}.
func (s *Binary) Predict(p []float64) float64 {
	if s.Decision(p) >= 0 {
		return 1
	}
	return -1
}

// Multiclass is a one-vs-rest ensemble of binary SVMs.
type Multiclass struct {
	C       float64
	Kern    Kernel
	classes []int
	models  []*Binary
}

// NewMulticlass returns a one-vs-rest classifier.
func NewMulticlass(c float64, k Kernel) *Multiclass {
	return &Multiclass{C: c, Kern: k}
}

// Fit trains one binary SVM per distinct label in y.
func (m *Multiclass) Fit(x [][]float64, y []int, seed int64) {
	seen := map[int]bool{}
	m.classes = m.classes[:0]
	for _, l := range y {
		if !seen[l] {
			seen[l] = true
			m.classes = append(m.classes, l)
		}
	}
	m.models = make([]*Binary, len(m.classes))
	k := gram(m.Kern, x)
	for ci, c := range m.classes {
		lbl := make([]float64, len(y))
		for i, l := range y {
			if l == c {
				lbl[i] = 1
			} else {
				lbl[i] = -1
			}
		}
		b := NewBinary(m.C, m.Kern)
		b.fit(x, lbl, k, seed+int64(ci))
		m.models[ci] = b
	}
}

// State is a trained multiclass classifier: its classes and one fitted
// binary model per class.
type State struct {
	Classes []int    `json:"classes"`
	Models  []Fitted `json:"models"`
}

// State returns the classifier's trained state.
func (m *Multiclass) State() State {
	st := State{Classes: slices.Clone(m.classes)}
	for _, b := range m.models {
		st.Models = append(st.Models, b.Fitted)
	}
	return st
}

// SetState installs a trained state, rejecting one whose models and
// classes do not pair up or whose support vectors are not dim long.
func (m *Multiclass) SetState(st State, dim int) error {
	if len(st.Models) != len(st.Classes) {
		return fmt.Errorf("svm: %d models for %d classes", len(st.Models), len(st.Classes))
	}
	m.classes, m.models = st.Classes, make([]*Binary, len(st.Models))
	for i, f := range st.Models {
		if len(f.Y) != len(f.X) || len(f.Alphas) != len(f.X) {
			return fmt.Errorf("svm: model %d has %d support vectors, %d labels and %d multipliers", i, len(f.X), len(f.Y), len(f.Alphas))
		}
		for _, x := range f.X {
			if len(x) != dim {
				return fmt.Errorf("svm: model %d has a %d-dimensional support vector, want %d", i, len(x), dim)
			}
		}
		m.models[i] = NewBinary(m.C, m.Kern)
		m.models[i].Fitted = f
	}
	return nil
}

// Predict returns the class whose binary model scores highest. With no
// training it returns 0.
func (m *Multiclass) Predict(p []float64) int {
	if len(m.models) == 0 {
		return 0
	}
	best, bestVal := m.classes[0], math.Inf(-1)
	for i, b := range m.models {
		if v := b.Decision(p); v > bestVal {
			best, bestVal = m.classes[i], v
		}
	}
	return best
}
