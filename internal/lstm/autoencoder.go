package lstm

import (
	"math"
	"math/rand"
	"slices"
)

// Autoencoder is the sequence-to-sequence autoencoder of §5.1.1: an
// embedding layer, an LSTM encoder, and an LSTM decoder with a softmax
// projection that reconstructs the input token sequence. The encoder's
// final hidden state is the dense query encoding.
//
// Autoencoder is the trainer. The embedded Encoder is a live view of the
// weights being trained (not safe to read during Train); Freeze copies it
// out once training is over.
type Autoencoder struct {
	*Encoder
	gradEmb []float64
	Dec     *Cell
	Proj    []float64 // Vocab × Hidden
	ProjB   []float64
	gradPj  []float64
	gradPjB []float64

	opt *adam

	// BPTT scratch, grown to the longest sequence seen and reused by
	// every Train call: one step cache per encoder and decoder timestep,
	// one softmax row per decoder timestep, and the running gradients.
	encCaches, decCaches []*stepCache
	probs                [][]float64
	zero                 State // the encoder's initial state; read-only
	dH, dC, dX           []float64
}

// NewAutoencoder builds an autoencoder for the given vocabulary size.
func NewAutoencoder(vocab, embDim, hidden int, seed int64) *Autoencoder {
	rng := rand.New(rand.NewSource(seed))
	emb := make([]float64, vocab*embDim)
	enc := NewCell(embDim, hidden, rng)
	a := &Autoencoder{
		Encoder: newEncoder(vocab, embDim, 32, emb, enc),
		gradEmb: make([]float64, vocab*embDim),
		Dec:     NewCell(embDim, hidden, rng),
		Proj:    make([]float64, vocab*hidden),
		ProjB:   make([]float64, vocab),
		gradPj:  make([]float64, vocab*hidden),
		gradPjB: make([]float64, vocab),
		zero:    enc.NewState(),
		dH:      make([]float64, hidden),
		dC:      make([]float64, hidden),
		dX:      make([]float64, embDim),
	}
	for i := range a.Emb {
		a.Emb[i] = rng.NormFloat64() * 0.1
	}
	scale := 1 / math.Sqrt(float64(hidden))
	for i := range a.Proj {
		a.Proj[i] = rng.NormFloat64() * scale
	}
	params := [][]float64{a.Emb, a.Proj, a.ProjB}
	grads := [][]float64{a.gradEmb, a.gradPj, a.gradPjB}
	pe, ge := a.Enc.params()
	pd, gd := a.Dec.params()
	params = append(append(params, pe...), pd...)
	grads = append(append(grads, ge...), gd...)
	a.opt = newAdam(0.01, params, grads)
	return a
}

// Freeze returns the trained encoder as an immutable, inference-only
// copy: embedding table and encoder cell weights, no decoder, gradients
// or optimizer state. The copy is independent of the trainer, which can
// be dropped (or trained further) without affecting it.
func (a *Autoencoder) Freeze() *Encoder {
	return newEncoder(a.Vocab, a.EmbDim, a.MaxLen, slices.Clone(a.Emb), a.Enc.frozen())
}

// Train runs one BPTT step reconstructing the token sequence (teacher
// forcing) and returns the mean cross-entropy. Sequences shorter than 2
// tokens are skipped (loss 0).
func (a *Autoencoder) Train(tokens []int) float64 {
	if len(tokens) > a.MaxLen {
		tokens = tokens[:a.MaxLen]
	}
	if len(tokens) < 2 {
		return 0
	}
	for len(a.encCaches) < len(tokens) {
		a.encCaches = append(a.encCaches, a.Enc.newStepCache())
		a.decCaches = append(a.decCaches, a.Dec.newStepCache())
		a.probs = append(a.probs, make([]float64, a.Vocab))
	}
	a.zeroGrad()

	// Encoder forward.
	s := a.zero
	for t, tok := range tokens {
		s = a.Enc.Step(a.embed(tok), s, a.encCaches[t])
	}

	// Decoder forward with teacher forcing: input token t predicts t+1.
	steps := len(tokens) - 1
	loss := 0.0
	for t := 0; t < steps; t++ {
		s = a.Dec.Step(a.embed(tokens[t]), s, a.decCaches[t])
		p := a.softmax(s.H, a.probs[t])
		loss += -math.Log(math.Max(p[a.clampTok(tokens[t+1])], 1e-12))
	}
	loss /= float64(steps)

	// Decoder backward.
	dH, dC, dX := a.dH, a.dC, a.dX
	clear(dH)
	clear(dC)
	for t := steps - 1; t >= 0; t-- {
		// Softmax + cross-entropy gradient wrt decoder hidden output.
		p := a.probs[t]
		target := a.clampTok(tokens[t+1])
		for v := 0; v < a.Vocab; v++ {
			g := p[v]
			if v == target {
				g -= 1
			}
			if g == 0 {
				continue
			}
			g /= float64(steps)
			a.gradPjB[v] += g
			row := a.Proj[v*a.Hidden : (v+1)*a.Hidden]
			gRow := a.gradPj[v*a.Hidden : (v+1)*a.Hidden]
			for h := 0; h < a.Hidden; h++ {
				gRow[h] += g * a.decCaches[t].hNew[h]
				dH[h] += g * row[h]
			}
		}
		a.Dec.StepBack(a.decCaches[t], dH, dC, dX)
		a.accumEmbGrad(tokens[t], dX)
	}

	// Gradient flows from the decoder's initial state into the encoder.
	for t := len(tokens) - 1; t >= 0; t-- {
		a.Enc.StepBack(a.encCaches[t], dH, dC, dX)
		a.accumEmbGrad(tokens[t], dX)
	}

	a.clip(5)
	a.opt.step()
	return loss
}

func (a *Autoencoder) accumEmbGrad(tok int, dX []float64) {
	tok = a.clampTok(tok)
	row := a.gradEmb[tok*a.EmbDim : (tok+1)*a.EmbDim]
	for i, g := range dX {
		row[i] += g
	}
}

// softmax writes the projection's output distribution for hidden state h
// into logits (length Vocab) and returns it.
func (a *Autoencoder) softmax(h, logits []float64) []float64 {
	maxv := math.Inf(-1)
	for v := 0; v < a.Vocab; v++ {
		row := a.Proj[v*a.Hidden : (v+1)*a.Hidden]
		s := a.ProjB[v]
		for k, hv := range h {
			s += row[k] * hv
		}
		logits[v] = s
		if s > maxv {
			maxv = s
		}
	}
	sum := 0.0
	for v := range logits {
		logits[v] = math.Exp(logits[v] - maxv)
		sum += logits[v]
	}
	for v := range logits {
		logits[v] /= sum
	}
	return logits
}

func (a *Autoencoder) zeroGrad() {
	for i := range a.gradEmb {
		a.gradEmb[i] = 0
	}
	for i := range a.gradPj {
		a.gradPj[i] = 0
	}
	for i := range a.gradPjB {
		a.gradPjB[i] = 0
	}
	a.Enc.zeroGrad()
	a.Dec.zeroGrad()
}

func (a *Autoencoder) clip(c float64) {
	total := 0.0
	for _, g := range a.opt.grads {
		for _, x := range g {
			total += x * x
		}
	}
	norm := math.Sqrt(total)
	if norm <= c || norm == 0 {
		return
	}
	scale := c / norm
	for _, g := range a.opt.grads {
		for i := range g {
			g[i] *= scale
		}
	}
}

// adam is a private Adam optimizer over aligned param/grad slices (the
// nn package has its own; duplicating ~30 lines avoids a dependency
// cycle risk and keeps lstm self-contained).
type adam struct {
	lr, b1, b2, eps float64
	t               int
	m, v            [][]float64
	params, grads   [][]float64
}

func newAdam(lr float64, params, grads [][]float64) *adam {
	a := &adam{lr: lr, b1: 0.9, b2: 0.999, eps: 1e-8, params: params, grads: grads}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p)))
		a.v = append(a.v, make([]float64, len(p)))
	}
	return a
}

func (a *adam) step() {
	a.t++
	c1 := 1 - math.Pow(a.b1, float64(a.t))
	c2 := 1 - math.Pow(a.b2, float64(a.t))
	for pi, p := range a.params {
		g := a.grads[pi]
		m, v := a.m[pi], a.v[pi]
		for i := range p {
			m[i] = a.b1*m[i] + (1-a.b1)*g[i]
			v[i] = a.b2*v[i] + (1-a.b2)*g[i]*g[i]
			p[i] -= a.lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + a.eps)
		}
	}
}
