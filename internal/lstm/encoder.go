package lstm

import (
	"sync"

	"repro/internal/mathx"
)

// Encoder is the inference half of the autoencoder: the embedding table
// and the encoder cell. It has no training method; an Encoder returned by
// Autoencoder.Freeze owns copies of the weights, so nothing can change
// them and any number of goroutines may encode through it at once.
type Encoder struct {
	Vocab  int
	EmbDim int
	Hidden int
	MaxLen int       // sequences are truncated to this length
	Emb    []float64 // Vocab × EmbDim
	Enc    *Cell

	// inf pools inference scratch (state + preactivation buffers) so
	// Encode/EncodeAll allocate nothing per token and stay safe under
	// concurrent use.
	inf sync.Pool
}

// infScratch is one worker's reusable inference state.
type infScratch struct {
	h, c, pre []float64
}

func newEncoder(vocab, embDim, maxLen int, emb []float64, enc *Cell) *Encoder {
	e := &Encoder{Vocab: vocab, EmbDim: embDim, Hidden: enc.Hidden, MaxLen: maxLen, Emb: emb, Enc: enc}
	hidden := enc.Hidden
	e.inf.New = func() interface{} {
		return &infScratch{
			h:   make([]float64, hidden),
			c:   make([]float64, hidden),
			pre: make([]float64, 4*hidden),
		}
	}
	return e
}

// embed looks up a token embedding (view, not copy).
func (e *Encoder) embed(tok int) []float64 {
	tok = e.clampTok(tok)
	return e.Emb[tok*e.EmbDim : (tok+1)*e.EmbDim]
}

func (e *Encoder) clampTok(tok int) int {
	if tok < 0 || tok >= e.Vocab {
		return 0
	}
	return tok
}

// Encode runs the encoder over a token sequence and returns the final
// hidden state — the dense query encoding.
func (e *Encoder) Encode(tokens []int) []float64 {
	return e.EncodeInto(tokens, make([]float64, e.Hidden))
}

// EncodeInto is Encode writing the encoding into out (length Hidden),
// which is also returned. It runs the allocation-free inference step with
// pooled scratch buffers, so concurrent calls are safe.
func (e *Encoder) EncodeInto(tokens []int, out []float64) []float64 {
	if len(tokens) > e.MaxLen {
		tokens = tokens[:e.MaxLen]
	}
	s := e.inf.Get().(*infScratch)
	for i := range s.h {
		s.h[i], s.c[i] = 0, 0
	}
	for _, tok := range tokens {
		e.Enc.StepInfer(e.embed(tok), s.h, s.c, s.pre)
	}
	copy(out, s.h)
	e.inf.Put(s)
	return out
}

// EncodeAll encodes a batch of token sequences, fanning the sequences
// across mathx.ParallelFor's bounded worker pool — the cold-template path
// of the featurizer's encoding cache.
func (e *Encoder) EncodeAll(seqs [][]int) [][]float64 {
	out := make([][]float64, len(seqs))
	flat := make([]float64, len(seqs)*e.Hidden)
	mathx.ParallelFor(len(seqs), func(i int) {
		out[i] = e.EncodeInto(seqs[i], flat[i*e.Hidden:(i+1)*e.Hidden])
	})
	return out
}
