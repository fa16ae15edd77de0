package featurize

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/workload"
)

func pretrained(t *testing.T) *Featurizer {
	t.Helper()
	f := New(3)
	f.Pretrain([]workload.Generator{workload.NewTPCC(1, false), workload.NewJOB(2, false)}, 2)
	return f
}

func TestContextDimStable(t *testing.T) {
	f := pretrained(t)
	in := dbsim.New(knobs.MySQL57(), 1)
	for _, g := range []workload.Generator{
		workload.NewTPCC(1, true), workload.NewJOB(2, true), workload.NewRealWorld(3),
	} {
		w := g.At(5)
		ctx := f.Context(w, in.OptimizerStats(w))
		if len(ctx) != f.Dim() {
			t.Fatalf("%s: dim %d, want %d", g.Name(), len(ctx), f.Dim())
		}
		for i, v := range ctx {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: ctx[%d] = %v", g.Name(), i, v)
			}
		}
	}
}

func TestContextDistinguishesWorkloads(t *testing.T) {
	f := pretrained(t)
	in := dbsim.New(knobs.MySQL57(), 1)
	tp := workload.NewTPCC(1, false).At(0)
	jb := workload.NewJOB(2, false).At(0)
	c1 := f.Context(tp, in.OptimizerStats(tp))
	c2 := f.Context(jb, in.OptimizerStats(jb))
	d := 0.0
	for i := range c1 {
		d += math.Abs(c1[i] - c2[i])
	}
	if d < 0.05 {
		t.Fatalf("TPC-C and JOB contexts nearly identical: %v vs %v", c1, c2)
	}
}

func TestContextStableWithinWorkload(t *testing.T) {
	// Static TPC-C at different iterations (same mix, new SQL constants)
	// should map to nearby contexts — the normalization of literals and
	// the frozen encoder make the embedding a function of query shape.
	f := pretrained(t)
	in := dbsim.New(knobs.MySQL57(), 1)
	g := workload.NewTPCC(1, false)
	a := g.At(0)
	b := g.At(1)
	// Keep data size equal to isolate the workload feature.
	b.DataGB = a.DataGB
	c1 := f.Context(a, in.OptimizerStats(a))
	c2 := f.Context(b, in.OptimizerStats(b))
	d := 0.0
	for i := range c1 {
		d += math.Abs(c1[i] - c2[i])
	}
	if d > 0.05 {
		t.Fatalf("same-workload contexts too far apart: %v", d)
	}
}

func TestDataFeatureTracksGrowth(t *testing.T) {
	f := pretrained(t)
	in := dbsim.New(knobs.MySQL57(), 1)
	g := workload.NewTPCC(1, false)
	a, b := g.At(0), g.At(400) // 18 GB vs ~48 GB
	ca := f.Context(a, in.OptimizerStats(a))
	cb := f.Context(b, in.OptimizerStats(b))
	rowsIdx := 1 + EncoderHidden
	if cb[rowsIdx] <= ca[rowsIdx] {
		t.Fatalf("rows-examined feature should grow with data: %v -> %v", ca[rowsIdx], cb[rowsIdx])
	}
}

func TestAblationsZeroComponents(t *testing.T) {
	f := pretrained(t)
	in := dbsim.New(knobs.MySQL57(), 1)
	w := workload.NewTPCC(1, false).At(0)
	st := in.OptimizerStats(w)

	f.UseWorkload = false
	c := f.Context(w, st)
	for i := 0; i <= EncoderHidden; i++ {
		if c[i] != 0 {
			t.Fatalf("workload ablation leaves ctx[%d] = %v", i, c[i])
		}
	}
	f.UseWorkload = true
	f.UseData = false
	c = f.Context(w, st)
	for i := 1 + EncoderHidden; i < len(c); i++ {
		if c[i] != 0 {
			t.Fatalf("data ablation leaves ctx[%d] = %v", i, c[i])
		}
	}
}

// TestCachedContextBitwiseIdentical is the cache-correctness property
// test: over randomized workload snapshots (random generators, random
// iterations, revisits), the template-cached Context output must be
// bitwise-identical to the uncached path.
func TestCachedContextBitwiseIdentical(t *testing.T) {
	in := dbsim.New(knobs.MySQL57(), 1)
	rng := rand.New(rand.NewSource(11))
	gens := []workload.Generator{
		workload.NewTPCC(1, true),
		workload.NewJOB(2, true),
		workload.NewTwitter(3, true),
		workload.NewRealWorld(4),
	}
	cached := pretrained(t)
	uncached := pretrained(t)
	uncached.setCacheBound(0)
	for trial := 0; trial < 120; trial++ {
		g := gens[rng.Intn(len(gens))]
		w := g.At(rng.Intn(12)) // small range forces template revisits
		st := in.OptimizerStats(w)
		a := cached.Context(w, st)
		b := uncached.Context(w, st)
		if len(a) != len(b) {
			t.Fatalf("trial %d: dim %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d (%s@%d): ctx[%d] cached %v != uncached %v",
					trial, g.Name(), w.Iter, i, a[i], b[i])
			}
		}
	}
	if s := cached.Stats(); s.Hits == 0 {
		t.Fatal("property test never hit the cache — not exercising memoization")
	}
}

// TestLRUEvictionPreservesResults pins that a tiny cache bound forces
// evictions without changing any output: evicted templates recompute to
// bitwise-identical encodings because vocabulary admission is sticky.
func TestLRUEvictionPreservesResults(t *testing.T) {
	in := dbsim.New(knobs.MySQL57(), 1)
	tiny := pretrained(t)
	tiny.setCacheBound(2) // far below any workload's template count
	full := pretrained(t)
	gens := []workload.Generator{workload.NewTPCC(1, true), workload.NewJOB(2, true)}
	for round := 0; round < 3; round++ {
		for _, g := range gens {
			w := g.At(round)
			st := in.OptimizerStats(w)
			a := tiny.Context(w, st)
			b := full.Context(w, st)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("round %d %s: eviction changed ctx[%d]: %v vs %v", round, g.Name(), i, a[i], b[i])
				}
			}
		}
	}
	if s := tiny.Stats(); s.Evictions == 0 {
		t.Fatalf("bound-2 cache never evicted: %+v", s)
	}
}

// TestAblationShortCircuitsEncoder verifies the UseWorkload=false path
// skips the encoder entirely — no cache traffic, even with a never-
// pretrained featurizer — while the vector stays length-stable.
func TestAblationShortCircuitsEncoder(t *testing.T) {
	f := New(3) // deliberately NOT pretrained
	f.UseWorkload = false
	in := dbsim.New(knobs.MySQL57(), 1)
	w := workload.NewTPCC(1, false).At(0)
	c := f.Context(w, in.OptimizerStats(w))
	if len(c) != f.Dim() {
		t.Fatalf("ablated vector length %d, want %d", len(c), f.Dim())
	}
	for i := 0; i <= EncoderHidden; i++ {
		if c[i] != 0 {
			t.Fatalf("ablation leaves ctx[%d] = %v", i, c[i])
		}
	}
	if s := f.Stats(); s.Hits+s.Misses != 0 {
		t.Fatalf("ablated Context touched the encoder cache: %+v", s)
	}
}

// TestContextIntoReusesBuffer checks the scratch-vector contract: the
// returned slice reuses dst's storage and matches Context exactly.
func TestContextIntoReusesBuffer(t *testing.T) {
	f := pretrained(t)
	in := dbsim.New(knobs.MySQL57(), 1)
	g := workload.NewTPCC(1, true)
	buf := make([]float64, 0, f.Dim())
	base := &buf[:1][0] // backing array of the caller's scratch
	for i := 0; i < 5; i++ {
		w := g.At(i)
		st := in.OptimizerStats(w)
		want := f.Context(w, st)
		buf = f.ContextInto(buf, w, st)
		if &buf[0] != base {
			t.Fatalf("iter %d: ContextInto reallocated instead of reusing dst", i)
		}
		for j := range want {
			if buf[j] != want[j] {
				t.Fatalf("iter %d: ContextInto[%d] = %v, Context = %v", i, j, buf[j], want[j])
			}
		}
	}
}

func TestArrivalRateFeature(t *testing.T) {
	f := pretrained(t)
	in := dbsim.New(knobs.MySQL57(), 1)
	w := workload.NewRealWorld(1).At(0)
	c := f.Context(w, in.OptimizerStats(w))
	if c[0] <= 0 || c[0] > 1 {
		t.Fatalf("arrival feature = %v", c[0])
	}
	unlimited := workload.NewTPCC(1, false).At(0)
	cu := f.Context(unlimited, in.OptimizerStats(unlimited))
	if cu[0] != 1 {
		t.Fatalf("unlimited arrival should saturate at 1, got %v", cu[0])
	}
}
