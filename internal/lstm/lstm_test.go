package lstm

import (
	"math"
	"math/rand"
	"testing"
)

func TestCellStepShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewCell(4, 6, rng)
	s := c.NewState()
	x := []float64{0.1, -0.2, 0.3, 0.4}
	s2 := c.Step(x, s, c.newStepCache())
	if len(s2.H) != 6 || len(s2.C) != 6 {
		t.Fatalf("state dims %d/%d", len(s2.H), len(s2.C))
	}
	for _, h := range s2.H {
		if math.Abs(h) > 1 {
			t.Fatalf("hidden out of tanh range: %v", h)
		}
	}
}

func TestCellGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewCell(2, 3, rng)
	x := []float64{0.5, -0.4}
	s0 := c.NewState()
	s0.H[0], s0.C[1] = 0.2, -0.1

	// Scalar loss: sum of final hidden.
	loss := func() float64 {
		out := c.Step(x, s0, c.newStepCache())
		total := 0.0
		for _, h := range out.H {
			total += h
		}
		return total
	}
	c.zeroGrad()
	cache := c.newStepCache()
	c.Step(x, s0, cache)
	dX := make([]float64, 2)
	c.StepBack(cache, []float64{1, 1, 1}, make([]float64, 3), dX)

	const eps = 1e-6
	// Check a sample of Wx gradients.
	for _, wi := range []int{0, 5, 11, 17, 23} {
		orig := c.Wx[wi]
		c.Wx[wi] = orig + eps
		lp := loss()
		c.Wx[wi] = orig - eps
		lm := loss()
		c.Wx[wi] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-c.GradWx[wi]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("Wx[%d]: numeric %v vs analytic %v", wi, num, c.GradWx[wi])
		}
	}
	// Check input gradient.
	for i := range x {
		xp := append([]float64{}, x...)
		xp[i] += eps
		sp := c.Step(xp, s0, c.newStepCache())
		lp := sp.H[0] + sp.H[1] + sp.H[2]
		xm := append([]float64{}, x...)
		xm[i] -= eps
		sm := c.Step(xm, s0, c.newStepCache())
		lm := sm.H[0] + sm.H[1] + sm.H[2]
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dX[i]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("dX[%d]: numeric %v vs analytic %v", i, num, dX[i])
		}
	}
}

func TestAutoencoderLearnsTinyLanguage(t *testing.T) {
	a := NewAutoencoder(8, 6, 10, 3)
	rng := rand.New(rand.NewSource(4))
	// Three fixed "sentences" over a tiny vocabulary.
	seqs := [][]int{
		{1, 2, 3, 4},
		{5, 6, 7, 1},
		{2, 2, 5, 3},
	}
	var first, last float64
	for epoch := 0; epoch < 300; epoch++ {
		s := seqs[rng.Intn(len(seqs))]
		l := a.Train(s)
		if epoch == 0 {
			first = l
		}
		last = l
	}
	if last > first*0.7 {
		t.Fatalf("autoencoder loss did not shrink: %v -> %v", first, last)
	}
}

func TestEncodeProperties(t *testing.T) {
	a := NewAutoencoder(16, 8, 12, 5)
	e1 := a.Encode([]int{1, 2, 3})
	e2 := a.Encode([]int{1, 2, 3})
	if len(e1) != 12 {
		t.Fatalf("encoding dim %d", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("Encode must be deterministic")
		}
	}
	e3 := a.Encode([]int{9, 10, 11, 12})
	diff := 0.0
	for i := range e1 {
		diff += math.Abs(e1[i] - e3[i])
	}
	if diff < 1e-9 {
		t.Fatal("different sequences should encode differently")
	}
	// Out-of-range tokens are clamped, not a panic.
	_ = a.Encode([]int{-5, 999})
}

func TestTrainDegenerateSequences(t *testing.T) {
	a := NewAutoencoder(8, 4, 6, 1)
	if l := a.Train(nil); l != 0 {
		t.Fatalf("nil sequence should be skipped, loss %v", l)
	}
	if l := a.Train([]int{3}); l != 0 {
		t.Fatalf("length-1 sequence should be skipped, loss %v", l)
	}
}

// encodeRef is the pre-optimization Encode: the training-path Step with
// its per-token cache allocations. The inference path must match it
// bitwise.
func encodeRef(a *Autoencoder, tokens []int) []float64 {
	if len(tokens) > a.MaxLen {
		tokens = tokens[:a.MaxLen]
	}
	s := a.Enc.NewState()
	for _, tok := range tokens {
		s = a.Enc.Step(a.embed(tok), s, a.Enc.newStepCache())
	}
	out := make([]float64, a.Hidden)
	copy(out, s.H)
	return out
}

func TestEncodeInferMatchesStepBitwise(t *testing.T) {
	a := NewAutoencoder(32, 7, 9, 11)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		seq := make([]int, 1+rng.Intn(40))
		for i := range seq {
			seq[i] = rng.Intn(34) - 1 // includes out-of-range tokens
		}
		want := encodeRef(a, seq)
		got := a.Encode(seq)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: Encode[%d] = %v, reference %v", trial, i, got[i], want[i])
			}
		}
		into := a.EncodeInto(seq, make([]float64, a.Hidden))
		for i := range want {
			if want[i] != into[i] {
				t.Fatalf("trial %d: EncodeInto[%d] diverges", trial, i)
			}
		}
	}
}

func TestEncodeAllMatchesSequential(t *testing.T) {
	a := NewAutoencoder(16, 5, 8, 13)
	rng := rand.New(rand.NewSource(7))
	seqs := make([][]int, 37)
	for i := range seqs {
		seqs[i] = make([]int, 1+rng.Intn(20))
		for j := range seqs[i] {
			seqs[i][j] = rng.Intn(16)
		}
	}
	batch := a.EncodeAll(seqs)
	for i, seq := range seqs {
		want := a.Encode(seq)
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("seq %d dim %d: batch %v vs sequential %v", i, j, batch[i][j], want[j])
			}
		}
	}
	if out := a.EncodeAll(nil); len(out) != 0 {
		t.Fatal("empty batch should return empty")
	}
}

func TestTruncationToMaxLen(t *testing.T) {
	a := NewAutoencoder(8, 4, 6, 2)
	a.MaxLen = 4
	long := make([]int, 100)
	for i := range long {
		long[i] = i % 8
	}
	short := a.Encode(long[:4])
	full := a.Encode(long)
	for i := range short {
		if short[i] != full[i] {
			t.Fatal("Encode should truncate to MaxLen")
		}
	}
}
