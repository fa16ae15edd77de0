// Package lstm implements the LSTM encoder–decoder the paper uses for
// workload featurization (§5.1.1): a sequence autoencoder over SQL token
// streams whose final encoder hidden state is the dense query encoding.
// Training is standard truncated BPTT with Adam; everything is stdlib.
//
// Autoencoder is the trainer; Encoder is the inference-only half that
// Autoencoder.Freeze copies out, which is all that tuning reads.
package lstm

import (
	"math"
	"math/rand"
	"slices"
)

// Cell is a single LSTM cell. Gate order in the stacked weights is
// input, forget, cell (candidate), output.
type Cell struct {
	InDim, Hidden int
	Wx            []float64 // (4H) × InDim
	Wh            []float64 // (4H) × H
	B             []float64 // 4H
	GradWx        []float64
	GradWh        []float64
	GradB         []float64
}

// NewCell returns an LSTM cell with small random weights and forget-gate
// bias 1 (the standard trick for gradient flow).
func NewCell(inDim, hidden int, rng *rand.Rand) *Cell {
	c := &Cell{
		InDim: inDim, Hidden: hidden,
		Wx: make([]float64, 4*hidden*inDim), Wh: make([]float64, 4*hidden*hidden),
		B:      make([]float64, 4*hidden),
		GradWx: make([]float64, 4*hidden*inDim), GradWh: make([]float64, 4*hidden*hidden),
		GradB: make([]float64, 4*hidden),
	}
	scale := 1 / math.Sqrt(float64(inDim+hidden))
	for i := range c.Wx {
		c.Wx[i] = rng.NormFloat64() * scale
	}
	for i := range c.Wh {
		c.Wh[i] = rng.NormFloat64() * scale
	}
	for h := 0; h < hidden; h++ {
		c.B[hidden+h] = 1 // forget gate bias
	}
	return c
}

// State is the (h, c) pair of an LSTM.
type State struct{ H, C []float64 }

// NewState returns a zero state for the cell.
func (c *Cell) NewState() State {
	return State{H: make([]float64, c.Hidden), C: make([]float64, c.Hidden)}
}

// frozen returns a copy of the cell's weights without gradient buffers:
// enough for StepInfer, unusable for StepBack.
func (c *Cell) frozen() *Cell {
	return &Cell{
		InDim: c.InDim, Hidden: c.Hidden,
		Wx: slices.Clone(c.Wx), Wh: slices.Clone(c.Wh), B: slices.Clone(c.B),
	}
}

// stepCache stores the intermediates of one forward step for BPTT. It is
// reusable: Step overwrites every field, and StepBack reuses pre (dead
// once the gates are computed) for the preactivation gradients.
type stepCache struct {
	x          []float64
	prev       State
	pre        []float64 // 4H
	i, f, g, o []float64
	cNew, hNew []float64
}

// newStepCache allocates a cache for this cell's hidden width.
func (c *Cell) newStepCache() *stepCache {
	H := c.Hidden
	return &stepCache{
		pre: make([]float64, 4*H),
		i:   make([]float64, H), f: make([]float64, H),
		g: make([]float64, H), o: make([]float64, H),
		cNew: make([]float64, H), hNew: make([]float64, H),
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Step advances the cell one timestep, filling cache with what backprop
// needs. The returned state aliases the cache and is valid until the cache
// is reused.
func (c *Cell) Step(x []float64, s State, cache *stepCache) State {
	H := c.Hidden
	pre := cache.pre
	copy(pre, c.B)
	for r := 0; r < 4*H; r++ {
		rowX := c.Wx[r*c.InDim : (r+1)*c.InDim]
		acc := 0.0
		for k, xv := range x {
			acc += rowX[k] * xv
		}
		rowH := c.Wh[r*H : (r+1)*H]
		for k, hv := range s.H {
			acc += rowH[k] * hv
		}
		pre[r] += acc
	}
	cache.x, cache.prev = x, s
	for h := 0; h < H; h++ {
		cache.i[h] = sigmoid(pre[h])
		cache.f[h] = sigmoid(pre[H+h])
		cache.g[h] = math.Tanh(pre[2*H+h])
		cache.o[h] = sigmoid(pre[3*H+h])
		cache.cNew[h] = cache.f[h]*s.C[h] + cache.i[h]*cache.g[h]
		cache.hNew[h] = cache.o[h] * math.Tanh(cache.cNew[h])
	}
	return State{H: cache.hNew, C: cache.cNew}
}

// StepInfer advances the cell one timestep for inference only, updating
// h and cs in place. pre is caller-provided scratch of length 4*Hidden.
// Unlike Step it allocates nothing and keeps no cache, so it cannot feed
// StepBack — it is the frozen-encoder hot path.
func (c *Cell) StepInfer(x, h, cs, pre []float64) {
	H := c.Hidden
	copy(pre, c.B)
	for r := 0; r < 4*H; r++ {
		rowX := c.Wx[r*c.InDim : (r+1)*c.InDim]
		acc := 0.0
		for k, xv := range x {
			acc += rowX[k] * xv
		}
		rowH := c.Wh[r*H : (r+1)*H]
		for k, hv := range h {
			acc += rowH[k] * hv
		}
		pre[r] += acc
	}
	for j := 0; j < H; j++ {
		i := sigmoid(pre[j])
		f := sigmoid(pre[H+j])
		g := math.Tanh(pre[2*H+j])
		o := sigmoid(pre[3*H+j])
		cs[j] = f*cs[j] + i*g
		h[j] = o * math.Tanh(cs[j])
	}
}

// StepBack backpropagates through one step. dH/dC hold the gradients
// flowing into the step's outputs and are overwritten with the gradients
// for the previous state; dX (length InDim) receives the input gradient.
func (c *Cell) StepBack(cache *stepCache, dH, dC, dX []float64) {
	H := c.Hidden
	dPre := cache.pre
	for h := 0; h < H; h++ {
		tc := math.Tanh(cache.cNew[h])
		do := dH[h] * tc
		dc := dC[h] + dH[h]*cache.o[h]*(1-tc*tc)
		di := dc * cache.g[h]
		df := dc * cache.prev.C[h]
		dg := dc * cache.i[h]
		dC[h] = dc * cache.f[h]
		dPre[h] = di * cache.i[h] * (1 - cache.i[h])
		dPre[H+h] = df * cache.f[h] * (1 - cache.f[h])
		dPre[2*H+h] = dg * (1 - cache.g[h]*cache.g[h])
		dPre[3*H+h] = do * cache.o[h] * (1 - cache.o[h])
	}
	// dH is fully consumed above, so it can take the previous-state
	// gradient in place.
	clear(dH)
	clear(dX)
	for r := 0; r < 4*H; r++ {
		g := dPre[r]
		if g == 0 {
			continue
		}
		c.GradB[r] += g
		rowX := c.Wx[r*c.InDim : (r+1)*c.InDim]
		gRowX := c.GradWx[r*c.InDim : (r+1)*c.InDim]
		for k, xv := range cache.x {
			gRowX[k] += g * xv
			dX[k] += g * rowX[k]
		}
		rowH := c.Wh[r*H : (r+1)*H]
		gRowH := c.GradWh[r*H : (r+1)*H]
		for k, hv := range cache.prev.H {
			gRowH[k] += g * hv
			dH[k] += g * rowH[k]
		}
	}
}

// zeroGrad clears accumulated gradients.
func (c *Cell) zeroGrad() {
	for i := range c.GradWx {
		c.GradWx[i] = 0
	}
	for i := range c.GradWh {
		c.GradWh[i] = 0
	}
	for i := range c.GradB {
		c.GradB[i] = 0
	}
}

// params returns aligned parameter and gradient slices.
func (c *Cell) params() (p, g [][]float64) {
	return [][]float64{c.Wx, c.Wh, c.B}, [][]float64{c.GradWx, c.GradWh, c.GradB}
}
