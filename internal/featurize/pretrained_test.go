package featurize

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/lstm"
	"repro/internal/workload"
)

// freshSeed returns a seed no earlier test or -count repetition in this
// process has pre-trained, so counter deltas are exact.
func freshSeed() int64 { return nextSeed.Add(1000) }

var nextSeed atomic.Int64

// unmemoized is the construction NewPretrained memoizes: a private
// encoder trained on the standard corpus.
func unmemoized(seed int64) *Featurizer {
	f := New(seed)
	f.Pretrain(corpus(seed), 2)
	return f
}

// hashEncoder hashes the bits of every frozen table.
func hashEncoder(e *lstm.Encoder) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, table := range [][]float64{e.Emb, e.Enc.Wx, e.Enc.Wh, e.Enc.B} {
		for _, v := range table {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func hashVocabulary(f *Featurizer) uint64 {
	h := fnv.New64a()
	for _, tok := range f.Vocabulary() {
		h.Write([]byte(tok))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// scriptedStream is a fixed snapshot sequence with revisits; the dynamic
// generators and seeds differ from the pre-training corpus, so it carries
// templates and tokens pre-training never saw.
func scriptedStream() []workload.Snapshot {
	gens := []workload.Generator{
		workload.NewTPCC(41, true),
		workload.NewJOB(42, true),
		workload.NewTwitter(43, true),
		workload.NewRealWorld(44),
		workload.NewYCSB(45),
	}
	var out []workload.Snapshot
	for round := 0; round < 3; round++ {
		for it := 0; it < 6; it++ {
			for _, g := range gens {
				out = append(out, g.At(it*7))
			}
		}
	}
	out = append(out, workload.Snapshot{Queries: []workload.Query{
		{SQL: "SELECT zz_never_seen FROM qq_unseen_table WHERE xx_col = 7", Weight: 1},
	}})
	return out
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dim %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: ctx[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestPretrainedGolden pins the pre-trained weights and vocabulary for
// seeds 0 and 1 to the hashes taken before Train reused its buffers (no
// floating-point operation may have moved), and caps what one cold
// pre-training allocates at a quarter of the 34,859 it took then.
func TestPretrainedGolden(t *testing.T) {
	golden := []struct {
		seed           int64
		weights, vocab uint64
	}{
		{0, 0x8dec3a8351abfc2b, 0xd4fca5c7d1b63c25},
		{1, 0x7073fdbb007d2fc1, 0xc52dfa63c87d0a2c},
	}
	for _, g := range golden {
		f := unmemoized(g.seed)
		if w, v := hashEncoder(f.enc), hashVocabulary(f); w != g.weights || v != g.vocab {
			t.Errorf("seed %d: weights %016x vocab %016x, golden %016x %016x", g.seed, w, v, g.weights, g.vocab)
		}
	}
	const ceiling = 34859 / 4
	if n := testing.AllocsPerRun(1, func() { unmemoized(1) }); n > ceiling {
		t.Errorf("one pre-training allocates %v objects, ceiling %d", n, ceiling)
	}
}

// TestMemoizedContextBitwiseIdentical: a featurizer served from the memo
// (second call for the seed, so a hit) and one built privately return the
// same bits over a stream with unseen templates and tokens, and end with
// the same vocabulary.
func TestMemoizedContextBitwiseIdentical(t *testing.T) {
	seed := freshSeed()
	before := Pretrainings()
	NewPretrained(seed)
	shared := NewPretrained(seed)
	if d := Pretrainings() - before; d != 1 {
		t.Fatalf("two NewPretrained calls pre-trained %d times, want 1", d)
	}
	private := unmemoized(seed)
	if shared.enc == private.enc {
		t.Fatal("New+Pretrain must keep a private encoder")
	}
	in := dbsim.New(knobs.MySQL57(), 1)
	admitted := len(shared.Vocabulary())
	for i, w := range scriptedStream() {
		st := in.OptimizerStats(w)
		sameBits(t, fmt.Sprintf("snapshot %d (%s)", i, w.Bench), shared.Context(w, st), private.Context(w, st))
	}
	if len(shared.Vocabulary()) == admitted {
		t.Fatal("stream admitted no token unseen in pre-training")
	}
	if hashVocabulary(shared) != hashVocabulary(private) {
		t.Fatal("vocabularies diverged")
	}
}

// TestSiblingIsolation: featurizers sharing one encoder share nothing
// else. A token admitted through one, or an ablation switched on one,
// leaves a sibling's vocabulary and encodings unchanged.
func TestSiblingIsolation(t *testing.T) {
	seed := freshSeed()
	a, b, ref := NewPretrained(seed), NewPretrained(seed), NewPretrained(seed)
	if a.enc != b.enc {
		t.Fatal("same-seed featurizers must share the frozen encoder")
	}
	in := dbsim.New(knobs.MySQL57(), 1)
	novel := workload.Snapshot{Queries: []workload.Query{
		{SQL: "SELECT brand_new_column FROM brand_new_table", Weight: 1},
	}}
	vocabBefore := hashVocabulary(b)
	a.Context(novel, in.OptimizerStats(novel))
	if len(a.Vocabulary()) == len(b.Vocabulary()) {
		t.Fatal("novel query admitted nothing")
	}
	if hashVocabulary(b) != vocabBefore {
		t.Fatal("admission through one featurizer changed a sibling's vocabulary")
	}
	a.UseWorkload, a.UseData = false, false
	for _, w := range scriptedStream() {
		st := in.OptimizerStats(w)
		a.Context(w, st)
		sameBits(t, w.Bench, b.Context(w, st), ref.Context(w, st))
	}
	if !b.UseWorkload || !b.UseData {
		t.Fatal("ablation switches leaked to a sibling")
	}
}

// TestMemoEvictionReproducesWeights: the memo never exceeds its bound,
// drops the least recently used seed, and a dropped seed pre-trains again
// to the same weights.
func TestMemoEvictionReproducesWeights(t *testing.T) {
	seed := freshSeed()
	first := NewPretrained(seed)
	for i := int64(1); i <= memoBound; i++ {
		memoFor(seed + i) // inserts an entry without training it
	}
	memo.Lock()
	n := len(memo.entries)
	kept := slices.ContainsFunc(memo.entries, func(p *memoEntry) bool { return p.seed == seed })
	memo.Unlock()
	if n > memoBound || kept {
		t.Fatalf("after %d other seeds: %d entries (bound %d), original kept=%v", memoBound, n, memoBound, kept)
	}
	before := Pretrainings()
	again := NewPretrained(seed)
	if d := Pretrainings() - before; d != 1 {
		t.Fatalf("evicted seed pre-trained %d times on return, want 1", d)
	}
	if again.enc == first.enc {
		t.Fatal("evicted entry was not rebuilt")
	}
	if hashEncoder(again.enc) != hashEncoder(first.enc) || hashVocabulary(again) != hashVocabulary(first) {
		t.Fatal("re-training an evicted seed changed the weights or vocabulary")
	}
}

// TestConcurrentPretrainSingleFlight (run with -race): goroutines asking
// for the same unseen seed train it once, and encoding concurrently
// through the shared encoder gives every goroutine the same vectors.
func TestConcurrentPretrainSingleFlight(t *testing.T) {
	const workers = 8
	seed := freshSeed()
	before := Pretrainings()
	feats := make([]*Featurizer, workers)
	var wg sync.WaitGroup
	for i := range feats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feats[i] = NewPretrained(seed)
		}()
	}
	wg.Wait()
	if d := Pretrainings() - before; d != 1 {
		t.Fatalf("%d concurrent NewPretrained calls pre-trained %d times, want 1", workers, d)
	}

	in := dbsim.New(knobs.MySQL57(), 1)
	stream := scriptedStream()
	stats := make([]dbsim.OptimizerStats, len(stream))
	for i, w := range stream {
		stats[i] = in.OptimizerStats(w)
	}
	out := make([][][]float64, workers)
	for i, f := range feats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, w := range stream {
				out[i] = append(out[i], f.Context(w, stats[j]))
			}
		}()
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		for j := range stream {
			sameBits(t, stream[j].Bench, out[i][j], out[0][j])
		}
	}
}

func TestPretrainOnFrozenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pretrain on a NewPretrained featurizer must panic")
		}
	}()
	NewPretrained(1).Pretrain(corpus(1), 1)
}
