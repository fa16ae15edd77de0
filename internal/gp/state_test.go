package gp

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// roundTrip exports c through JSON and imports it into a fresh model of
// the same shape.
func roundTrip(t *testing.T, c *ContextualGP, dim, ctxDim int, weights []float64) *ContextualGP {
	t.Helper()
	return roundTripInto(t, c, NewContextualWeighted(dim, ctxDim, weights))
}

// roundTripInto exports c through JSON and imports it into the unfitted r.
func roundTripInto(t *testing.T, c, r *ContextualGP) *ContextualGP {
	t.Helper()
	configs, ctxs, perf, st := c.State()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := r.SetState(configs, ctxs, perf, back); err != nil {
		t.Fatal(err)
	}
	return r
}

// sameModel compares everything a prediction, an Append or a
// hyperparameter search reads, bit for bit.
func sameModel(t *testing.T, step string, a, b *ContextualGP) {
	t.Helper()
	ga, gb := a.gp, b.gp
	if !sameBits(ga.Kern.Hyper(), gb.Kern.Hyper()) || ga.Noise != gb.Noise || ga.fresh != gb.fresh ||
		ga.appends != gb.appends || ga.jitter != gb.jitter || ga.yMean != gb.yMean || ga.yStd != gb.yStd ||
		!sameBits(ga.y, gb.y) || !sameBits(ga.stats, gb.stats) || !sameBits(ga.kres, gb.kres) || !sameBits(ga.alpha, gb.alpha) {
		t.Fatalf("%s: restored model state differs", step)
	}
	if ga.fresh && !sameBits(ga.chol, gb.chol) {
		t.Fatalf("%s: restored factor differs", step)
	}
}

// TestStateRoundTripBitIdentical: a model restored from its exported
// state through JSON equals the live one in every field its posterior
// reads — across incremental appends, hyperparameter searches and the
// at-cap sliding window — and both stay equal as they keep learning.
func TestStateRoundTripBitIdentical(t *testing.T) {
	const dim, ctxDim, cap = 6, 3, 24
	weights := []float64{1, 1, 0.35, 1, 0.35, 1}
	rng := rand.New(rand.NewSource(5))
	configs, perfs := synthData(rng, 60, dim)
	ctxs, _ := synthData(rng, 60, ctxDim)
	live := NewContextualWeighted(dim, ctxDim, weights)
	restored := roundTrip(t, live, dim, ctxDim, weights)
	for i := range configs {
		for _, c := range []*ContextualGP{live, restored} {
			var err error
			if c.Len() < cap {
				err = c.Append(configs[i], ctxs[i], perfs[i])
			} else {
				err = c.Slide(configs[i], ctxs[i], perfs[i])
			}
			if err != nil {
				t.Fatal(err)
			}
			if i%10 == 9 {
				c.OptimizeHyperparams(30)
			}
		}
		sameModel(t, "continued", live, restored)
		if i%7 == 3 {
			restored = roundTrip(t, live, dim, ctxDim, weights)
			sameModel(t, "restored", live, restored)
		}
	}
	q, _ := synthData(rng, 20, dim)
	mu1, v1 := live.PredictAll(q, ctxs[0])
	mu2, v2 := restored.PredictAll(q, ctxs[0])
	if !sameBits(mu1, mu2) || !sameBits(v1, v2) {
		t.Fatal("restored model predicts differently")
	}
}

// TestInstallRefitReproducesSearch: installing what a hyperparameter
// search returned, through JSON, leaves a model bit-identical to the one
// the search left — incremental factors included, which a refit
// replaces — and a search that changes nothing returns nil.
func TestInstallRefitReproducesSearch(t *testing.T) {
	const dim, ctxDim, cap = 6, 3, 24
	weights := []float64{1, 1, 0.35, 1, 0.35, 1}
	rng := rand.New(rand.NewSource(11))
	configs, perfs := synthData(rng, 50, dim)
	ctxs, _ := synthData(rng, 50, ctxDim)
	live := NewContextualWeighted(dim, ctxDim, weights)
	replayed := NewContextualWeighted(dim, ctxDim, weights)
	if r := live.OptimizeHyperparams(30); r != nil {
		t.Fatalf("a search over no data installed %+v", r)
	}
	refits := 0
	for i := range configs {
		for _, c := range []*ContextualGP{live, replayed} {
			var err error
			if c.Len() < cap {
				err = c.Append(configs[i], ctxs[i], perfs[i])
			} else {
				err = c.Slide(configs[i], ctxs[i], perfs[i])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if i%7 != 6 {
			continue
		}
		r := live.OptimizeHyperparams(30)
		if r == nil {
			t.Fatalf("obs %d: the search installed nothing", i)
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Refit
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if err := replayed.InstallRefit(back); err != nil {
			t.Fatal(err)
		}
		sameModel(t, "refit", live, replayed)
		refits++
	}
	if refits == 0 {
		t.Fatal("no refit compared")
	}
	if err := replayed.InstallRefit(Refit{Hyper: []float64{1}, Noise: 1}); err == nil {
		t.Fatal("installed a refit of the wrong shape")
	}
	sameModel(t, "refused refit", live, replayed)
}

// TestSetStateRejectsMisshapenState: shapes that do not fit the training
// set or the kernel are errors, not panics.
func TestSetStateRejectsMisshapenState(t *testing.T) {
	const dim, ctxDim = 4, 2
	rng := rand.New(rand.NewSource(9))
	configs, perfs := synthData(rng, 8, dim)
	ctxs, _ := synthData(rng, 8, ctxDim)
	live := NewContextual(dim, ctxDim)
	if err := live.Fit(configs, ctxs, perfs); err != nil {
		t.Fatal(err)
	}
	c, x, y, st := live.State()
	for name, damage := range map[string]func(){
		"truncated factor": func() { st.Chol = st.Chol[:len(st.Chol)-1] },
		"short weights":    func() { st.Alpha = st.Alpha[1:] },
		"short unit":       func() { c[3] = c[3][:dim-1] },
		"long context":     func() { x[2] = append(x[2], 0) },
		"missing target":   func() { y = y[1:] },
		"kernel params":    func() { st.Kern = st.Kern[:1] },
		"negative appends": func() { st.Appends = -1 },
	} {
		c, x, y, st = live.State()
		damage()
		if err := NewContextual(dim, ctxDim).SetState(c, x, y, st); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSetStateRejectsNonPositivePivot: a stored factor whose diagonal
// holds an entry that is not positive is refused, with the entry named,
// as choleskyInto and CholeskyExtend refuse such a pivot; served, it
// would turn every posterior it touches into garbage.
func TestSetStateRejectsNonPositivePivot(t *testing.T) {
	const dim, ctxDim, n = 4, 2, 12
	rng := rand.New(rand.NewSource(11))
	configs, perfs := synthData(rng, n, dim)
	ctxs, _ := synthData(rng, n, ctxDim)
	live := NewContextual(dim, ctxDim)
	if err := live.Fit(configs, ctxs, perfs); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5, n - 1} {
		for _, bad := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(-1)} {
			c, x, y, st := live.State()
			st.Chol[tri(i+1)-1] = bad
			err := NewContextual(dim, ctxDim).SetState(c, x, y, st)
			if err == nil {
				t.Fatalf("diagonal entry %d set to %v: accepted", i, bad)
			}
			//tunevet:ignore errsentinel -- the assertion is on the operator-facing text (it must name the entry), not on error identity
			if want := fmt.Sprintf("diagonal entry %d ", i); !strings.Contains(err.Error(), want) {
				t.Fatalf("diagonal entry %d set to %v: error %q does not name it", i, bad, err)
			}
		}
	}
	// An off-diagonal entry may be anything a factorization rounds to.
	c, x, y, st := live.State()
	st.Chol[1] = -st.Chol[1]
	if err := NewContextual(dim, ctxDim).SetState(c, x, y, st); err != nil {
		t.Fatalf("a negated off-diagonal entry: %v", err)
	}
}
