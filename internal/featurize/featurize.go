// Package featurize implements OnlineTune's context featurization (§5.1):
// the uncontrollable environmental factors — workload and underlying
// data — are embedded as a dense context vector. The workload feature is
// the query arrival rate plus the mean LSTM encoding of the interval's
// queries; the data feature aggregates the optimizer's estimates (rows
// examined, filtered percentage, index usage). Query plans are
// deliberately NOT encoded: they depend on the currently applied
// configuration and would leak the tuner's own actions into the context.
//
// The query encoder is pre-trained once and only read while tuning, as in
// the paper: Pretrain ends by freezing it into an inference-only
// lstm.Encoder, and NewPretrained shares one frozen encoder between all
// featurizers of a seed. Vocabulary, template cache and ablation switches
// stay private to each featurizer.
//
// Because workloads repeat a small set of query templates (only the
// literals change, and sqlparse.Tokenize strips literals), the featurizer
// memoizes the frozen encoder's output per template signature in a
// bounded LRU cache (vocabulary ids need no cache of their own: token
// admission is sticky, so re-encoding is bitwise-stable). The signature
// is scanned into a reused buffer (sqlparse.AppendTemplateKey) and
// looked up without a copy, so a snapshot of repeating templates costs
// one scan per query and allocates nothing; only a miss tokenizes, and
// cold templates are batch-encoded across the bounded worker pool.
//
// A context is all the tuner reads of a workload's statements and
// optimizer stats, so a session logs each report's context and the
// tokens its featurization admitted (Admitted, Admit), and replaying the
// report installs them instead of featurizing.
package featurize

import (
	"container/list"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dbsim"
	"repro/internal/lstm"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// EncoderHidden is the LSTM hidden width — the dimensionality of the
// query-composition embedding.
const EncoderHidden = 8

// ContextDim is the context vector dimensionality: 1 (arrival rate) +
// EncoderHidden (query composition) + 3 (data features).
const ContextDim = 1 + EncoderHidden + 3

// DefaultCacheBound is the default number of query templates whose
// encodings are memoized. Real workloads cycle through tens of templates;
// the bound only exists so adversarial SQL streams cannot grow the cache
// without limit.
const DefaultCacheBound = 512

// CacheStats counts template-cache traffic (Context calls only; Pretrain
// never touches the cache).
type CacheStats struct {
	Hits, Misses, Evictions int
}

// cacheEntry is one memoized template: the frozen encoder's output.
// Vocabulary ids need no separate memoization — admission is sticky, so
// re-encoding an evicted template recomputes bitwise-identical ids and
// encodings. Evicted entries stay valid for callers already holding the
// slice.
type cacheEntry struct {
	key string
	enc []float64
}

// Featurizer turns workload snapshots and optimizer statistics into
// context vectors. The two Use* switches exist for the paper's ablations
// (OnlineTune-w/o-workload, OnlineTune-w/o-data, §7.3.1).
type Featurizer struct {
	UseWorkload bool
	UseData     bool

	vocab *sqlparse.Vocab
	// enc is only read by Context. After pre-training it is frozen, and
	// featurizers from NewPretrained share it; before, it is the live
	// view of trainer's weights.
	enc     *lstm.Encoder
	trainer *lstm.Autoencoder // nil once pre-trained

	// Template-keyed encoding cache (LRU, bound ≤ 0 disables).
	cacheBound int
	cache      map[string]*list.Element
	lru        *list.List // front = most recent
	stats      CacheStats

	// Scratch reused across Context calls (the per-iteration hot path
	// allocates nothing beyond the returned vector).
	avgBuf   []float64
	perQuery [][]float64
	coldSeqs [][]int
	coldKeys []string
	coldPos  map[string]int
	coldRefs []coldRef
	keyBuf   []byte
}

// coldRef maps a query index to its cold-template batch position.
type coldRef struct{ query, pos int }

// New returns a featurizer with an untrained, private query encoder. Call
// Pretrain before use so encodings are stable across the tuning run (the
// paper pre-trains the encoder-decoder; training it online would drift
// the context space under the GP).
func New(seed int64) *Featurizer {
	t := lstm.NewAutoencoder(256, 10, EncoderHidden, seed)
	return newFeaturizer(sqlparse.NewVocab(256), t.Encoder, t)
}

func newFeaturizer(vocab *sqlparse.Vocab, enc *lstm.Encoder, trainer *lstm.Autoencoder) *Featurizer {
	f := &Featurizer{
		UseWorkload: true,
		UseData:     true,
		vocab:       vocab,
		enc:         enc,
		trainer:     trainer,
		cacheBound:  DefaultCacheBound,
		avgBuf:      make([]float64, EncoderHidden),
		coldPos:     map[string]int{},
	}
	f.resetCache()
	return f
}

// Dim returns the context dimensionality (ContextDim).
func (f *Featurizer) Dim() int { return ContextDim }

// Vocabulary returns the encoder vocabulary's admitted tokens in id
// order. Token admission is sticky, so the list only grows; it is the
// featurizer state a session snapshot records.
func (f *Featurizer) Vocabulary() []string { return f.vocab.Tokens() }

// Admitted returns how many tokens the vocabulary has admitted, the
// length of Vocabulary(): the tokens an op admits are Vocabulary()[n:],
// where n is Admitted() before it.
func (f *Featurizer) Admitted() int { return f.vocab.Len() }

// Admit admits tokens in order, as the op that first admitted them did,
// so that a replayed op leaves the vocabulary as the live one left it
// without featurizing. Each token must be new and fit.
func (f *Featurizer) Admit(tokens []string) error {
	n := f.vocab.Len()
	for _, tok := range tokens {
		f.vocab.ID(tok)
	}
	if f.vocab.Len() != n+len(tokens) {
		return errors.New("featurize: tokens are not new admissions to this vocabulary")
	}
	return nil
}

// SetVocabulary admits tokens in order, so that Vocabulary returns them:
// restoring a vocabulary onto the pre-trained one it grew from gives
// every token its old id. A list that cannot be reproduced that way (a
// different pre-training, a repeated or special token, more than the
// capacity) is rejected.
func (f *Featurizer) SetVocabulary(tokens []string) error {
	for _, tok := range tokens {
		f.vocab.ID(tok)
	}
	if !slices.Equal(f.vocab.Tokens(), tokens) {
		return errors.New("featurize: vocabulary is not an admission order of this encoder's")
	}
	return nil
}

// memoBound is how many seeds' pre-trained encoders NewPretrained keeps
// (≈ 30 KB each). A fleet that sends no seed uses one; the bound exists so
// a stream of distinct seeds cannot grow the memo without limit. Past it
// the least recently used seed is dropped and pre-trains again on return.
const memoBound = 128

// memoEntry is one seed's pre-trained encoder. once makes pre-training
// single-flight: callers for the same unseen seed wait on this entry
// only, never on the memo lock.
type memoEntry struct {
	seed  int64
	once  sync.Once
	enc   *lstm.Encoder
	vocab *sqlparse.Vocab // as pre-training left it; cloned per caller
}

var memo struct {
	sync.Mutex
	entries []*memoEntry // most recently used first, at most memoBound
}

// memoFor returns seed's entry, moved to the front; a miss inserts an
// untrained one and drops the entry at the back.
func memoFor(seed int64) *memoEntry {
	memo.Lock()
	defer memo.Unlock()
	i := slices.IndexFunc(memo.entries, func(p *memoEntry) bool { return p.seed == seed })
	if i < 0 {
		i = min(len(memo.entries), memoBound-1)
		memo.entries = append(memo.entries[:i], &memoEntry{seed: seed})
	}
	p := memo.entries[i]
	copy(memo.entries[1:i+1], memo.entries[:i])
	memo.entries[0] = p
	return p
}

var pretrainings atomic.Int64

// Pretrainings returns how many pre-trainings (Pretrain calls, including
// the ones NewPretrained runs on a memo miss) this process has performed.
func Pretrainings() int64 { return pretrainings.Load() }

// corpus is the standard pre-training corpus (TPC-C, Twitter, JOB, YCSB,
// real-world) for a seed.
func corpus(seed int64) []workload.Generator {
	return []workload.Generator{
		workload.NewTPCC(seed, false),
		workload.NewTwitter(seed+1, false),
		workload.NewJOB(seed+2, false),
		workload.NewYCSB(seed + 3),
		workload.NewRealWorld(seed + 4),
	}
}

// NewPretrained returns a featurizer whose query encoder was pre-trained
// on the standard workload corpus — the deterministic construction every
// driver shares, so two featurizers built from the same seed produce
// bitwise-identical contexts. The pre-training runs once per seed per
// process (at most memoBound seeds are remembered): callers with the same
// seed share one frozen, read-only encoder, and each gets its own copy of
// the post-pre-train vocabulary and its own template cache. Concurrent
// calls with the same unseen seed train once; different seeds train in
// parallel. Calling Pretrain on the result panics.
func NewPretrained(seed int64) *Featurizer {
	p := memoFor(seed)
	p.once.Do(func() {
		f := New(seed)
		f.Pretrain(corpus(seed), 2)
		p.enc, p.vocab = f.enc, f.vocab
	})
	return newFeaturizer(p.vocab.Clone(), p.enc, nil)
}

// setCacheBound sets the LRU bound of the template encoding cache and
// clears it. n ≤ 0 disables memoization entirely — every Context call
// re-encodes every query, the reference the cache is tested against.
func (f *Featurizer) setCacheBound(n int) {
	f.cacheBound = n
	f.resetCache()
}

// Stats returns the template-cache counters accumulated since the last
// cache reset.
func (f *Featurizer) Stats() CacheStats { return f.stats }

func (f *Featurizer) resetCache() {
	f.cache = make(map[string]*list.Element)
	f.lru = list.New()
	f.stats = CacheStats{}
}

// cachePut inserts a template, evicting from the LRU tail at the bound.
func (f *Featurizer) cachePut(e *cacheEntry) {
	if f.cacheBound <= 0 {
		return
	}
	if el, ok := f.cache[e.key]; ok {
		f.lru.MoveToFront(el)
		el.Value = e
		return
	}
	for f.lru.Len() >= f.cacheBound {
		tail := f.lru.Back()
		f.lru.Remove(tail)
		delete(f.cache, tail.Value.(*cacheEntry).key)
		f.stats.Evictions++
	}
	f.cache[e.key] = f.lru.PushFront(e)
}

// Pretrain fits the query autoencoder on SQL sampled from the given
// generators, then freezes it: the featurizer keeps an inference-only
// copy of the encoder and drops the trainer (decoder, gradients, Adam
// moments). Any memoized encodings are invalidated: they were produced by
// the pre-training weights. A featurizer pre-trains at most once — a
// second call, or a call on a featurizer from NewPretrained, panics.
func (f *Featurizer) Pretrain(gens []workload.Generator, iters int) {
	if f.trainer == nil {
		panic("featurize: Pretrain on a featurizer whose encoder is already frozen")
	}
	for it := 0; it < iters; it++ {
		for _, g := range gens {
			snap := g.At(it)
			for _, q := range snap.Queries {
				f.trainer.Train(f.vocab.Encode(q.SQL))
			}
		}
	}
	f.enc, f.trainer = f.trainer.Freeze(), nil
	pretrainings.Add(1)
	f.resetCache()
}

// Context builds the context vector for a snapshot and its optimizer
// statistics. Ablated components are zeroed so the vector length is
// stable.
func (f *Featurizer) Context(w workload.Snapshot, stats dbsim.OptimizerStats) []float64 {
	return f.ContextInto(nil, w, stats)
}

// ContextInto is Context appending into dst's storage (dst may be nil or
// a previous result; its capacity is reused). All intermediate work —
// per-query encodings, the weighted average, cold-template batches —
// runs on internal scratch, so a warm-cache call allocates nothing
// beyond dst itself.
func (f *Featurizer) ContextInto(dst []float64, w workload.Snapshot, stats dbsim.OptimizerStats) []float64 {
	out := dst[:0]

	// Workload feature: arrival rate + mean query encoding.
	rate := 1.0 // unlimited arrival saturates the scale
	if !w.Unlimited {
		rate = math.Min(1, w.ArrivalRate/10000)
	}
	if !f.UseWorkload {
		rate = 0
	}
	out = append(out, rate)

	encAvg := f.avgBuf
	for i := range encAvg {
		encAvg[i] = 0
	}
	if f.UseWorkload && len(w.Queries) > 0 {
		// The ablation (UseWorkload false) short-circuits this branch: no
		// tokenization, no encoder work, no cache traffic.
		f.encodeQueries(w.Queries)
		var wsum float64
		for qi, q := range w.Queries {
			e := f.perQuery[qi]
			for i := range encAvg {
				encAvg[i] += q.Weight * e[i]
			}
			wsum += q.Weight
		}
		if wsum > 0 {
			for i := range encAvg {
				encAvg[i] /= wsum
			}
		}
	}
	out = append(out, encAvg...)

	// Underlying-data feature from the optimizer (§5.1.2).
	if f.UseData {
		out = append(out,
			math.Min(1, math.Log10(1+stats.RowsExamined)/6),
			stats.FilterPct/100,
			stats.IndexUsedFrac,
		)
	} else {
		out = append(out, 0, 0, 0)
	}
	return out
}

// encodeQueries fills f.perQuery with one encoding per query. A query's
// template key is scanned into scratch without tokenizing, and a cache
// hit reuses the memoized slice; only a miss tokenizes. Cold templates
// are deduplicated within the snapshot, their vocabulary ids assigned
// serially in first-appearance order (identical admission order to the
// uncached path), and encoded as one parallel batch.
func (f *Featurizer) encodeQueries(queries []workload.Query) {
	n := len(queries)
	if cap(f.perQuery) < n {
		f.perQuery = make([][]float64, n)
	}
	f.perQuery = f.perQuery[:n]
	f.coldSeqs = f.coldSeqs[:0]
	f.coldKeys = f.coldKeys[:0]
	f.coldRefs = f.coldRefs[:0]
	clear(f.coldPos)

	for qi, q := range queries {
		if f.cacheBound <= 0 {
			// Memoization disabled: sequential per-query encode.
			f.perQuery[qi] = f.enc.Encode(f.vocab.Encode(q.SQL))
			continue
		}
		f.keyBuf = sqlparse.AppendTemplateKey(f.keyBuf[:0], q.SQL)
		if el, ok := f.cache[string(f.keyBuf)]; ok {
			f.lru.MoveToFront(el)
			f.stats.Hits++
			f.perQuery[qi] = el.Value.(*cacheEntry).enc
			continue
		}
		f.stats.Misses++
		key := string(f.keyBuf)
		pos, seen := f.coldPos[key]
		if !seen {
			pos = len(f.coldSeqs)
			f.coldPos[key] = pos
			f.coldSeqs = append(f.coldSeqs, f.vocab.Encode(q.SQL))
			f.coldKeys = append(f.coldKeys, key)
		}
		f.coldRefs = append(f.coldRefs, coldRef{query: qi, pos: pos})
	}

	if len(f.coldSeqs) == 0 {
		return
	}
	encs := f.enc.EncodeAll(f.coldSeqs)
	for i, enc := range encs {
		f.cachePut(&cacheEntry{key: f.coldKeys[i], enc: enc})
	}
	for _, r := range f.coldRefs {
		f.perQuery[r.query] = encs[r.pos]
	}
}
