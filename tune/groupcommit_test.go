package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestManagerGroupCommitRolloutRestartEquivalence is the off-lock /
// group-commit restart-equivalence property test: a rollout-enabled
// session is driven through a canary promotion AND a shadow-failure
// rollback while eviction churn (MaxResident 1) and periodic restarts
// force it through WAL+journal recovery, all with the cross-session
// committer on. Advice and rollout status must stay bitwise identical
// to an uninterrupted in-memory reference across every boundary.
func TestManagerGroupCommitRolloutRestartEquivalence(t *testing.T) {
	stateDir := t.TempDir()
	opts := ManagerOptions{
		MaxResident: 1, CompactMin: 8, NoFsync: true,
		CommitInterval: 300 * time.Microsecond, CommitBatch: 2,
	}
	m, err := NewManagerOpts(stateDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Space: "case5", Seed: 3, Rollout: &RolloutConfig{Window: 2}}
	if _, err := m.Create("canary", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("filler", Config{Space: "case5", Seed: 8}); err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var groupCommits int64
	restart := func() {
		groupCommits += m.Stats().GroupCommits
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if m, err = NewManagerOpts(stateDir, opts); err != nil {
			t.Fatal(err)
		}
	}
	// step drives one interval on the managed session and the reference,
	// feeding canary-phase advice the given shadow measurement, and
	// checks advice + rollout status stay identical.
	step := func(i int, shadow ReplicaPerf) RolloutStatus {
		t.Helper()
		if i > 0 && i%25 == 0 {
			restart()
		}
		if i%10 == 5 {
			// Touching the filler under MaxResident 1 evicts the canary.
			if _, err := m.Suggest(context.Background(), "filler"); err != nil {
				t.Fatal(err)
			}
		}
		adv, err := m.Suggest(context.Background(), "canary")
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		want, err := ref.Suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(adv, want) {
			t.Fatalf("iter %d: advice diverged\nmanaged:   %+v\nreference: %+v", i, adv, want)
		}
		o := goldenOutcome(i)
		o.Performance = 105 + float64(i%5)
		o.Baseline = 90
		if adv.RolloutPhase == RolloutCanary {
			o.Measurements = map[Role]ReplicaPerf{RoleStaged: shadow}
		}
		if _, err := m.Report("canary", o); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if err := ref.Report(o); err != nil {
			t.Fatal(err)
		}
		st, err := m.Rollout("canary")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, ref.Rollout()) {
			t.Fatalf("iter %d: rollout status diverged\nmanaged:   %+v\nreference: %+v", i, st, ref.Rollout())
		}
		return st
	}

	const maxIters = 240
	i := 0
	// Phase 1: a strong shadow promotes the candidate.
	for ; i < maxIters; i++ {
		if step(i, ReplicaPerf{Performance: 130}).Promotions > 0 {
			break
		}
	}
	if i == maxIters {
		t.Fatalf("no canary promotion within %d iterations", maxIters)
	}
	// Phase 2: a failing shadow forces a rollback, across the same
	// restart/eviction churn.
	for ; i < maxIters; i++ {
		if step(i, ReplicaPerf{Performance: 0, Failed: true}).Rollbacks > 0 {
			break
		}
	}
	if i == maxIters {
		t.Fatalf("no rollback within %d iterations", maxIters)
	}
	groupCommits += m.Stats().GroupCommits
	if groupCommits == 0 {
		t.Fatal("run never exercised the group-commit path")
	}
	if st := m.Stats(); st.Evictions == 0 && st.Hydrations == 0 {
		t.Fatalf("run saw no eviction churn: %+v", st)
	}
}

// TestManagerGroupCommitDurabilityHammer drives concurrent sessions
// through the group-commit path while the checkpoint fault seam fails
// in bursts: every operation must either succeed or surface
// ErrDurability (never a lost ack), advice must track each session's
// uninterrupted reference even through failures (memory advances), and
// once the fault clears one clean interval per session flushes the
// backlog so a restart recovers every history exactly.
func TestManagerGroupCommitDurabilityHammer(t *testing.T) {
	stateDir := t.TempDir()
	opts := ManagerOptions{
		NoFsync:        true,
		CommitInterval: 200 * time.Microsecond,
		CommitBatch:    4,
	}
	m, err := NewManagerOpts(stateDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	const iters = 12
	refs := make([]*Session, n)
	for g := 0; g < n; g++ {
		cfg := Config{Space: "case5", Seed: int64(200 + g)}
		if _, err := m.Create(fmt.Sprintf("db-%d", g), cfg); err != nil {
			t.Fatal(err)
		}
		if refs[g], err = NewSession(cfg); err != nil {
			t.Fatal(err)
		}
	}

	// Fault bursts: 5 consecutive persist attempts fail, then 5 succeed.
	// Burst interiors defeat the manager's single retry (→ ErrDurability);
	// burst edges exercise the retry-absorbed path.
	var faulting atomic.Bool
	var calls atomic.Int64
	m.checkpointFailure = func() error {
		if faulting.Load() && (calls.Add(1)/5)%2 == 0 {
			return errors.New("injected checkpoint fault")
		}
		return nil
	}
	faulting.Store(true)

	var durabilityErrs atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("db-%d", g)
			for i := 0; i < iters; i++ {
				adv, err := m.Suggest(context.Background(), id)
				if err != nil {
					if !errors.Is(err, ErrDurability) {
						t.Errorf("%s iter %d: Suggest: %v", id, i, err)
						return
					}
					durabilityErrs.Add(1)
				}
				want, err := refs[g].Suggest(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(adv, want) {
					t.Errorf("%s iter %d: advice diverged under faults", id, i)
					return
				}
				o := goldenOutcome(i)
				iter, err := m.Report(id, o)
				if err != nil {
					if !errors.Is(err, ErrDurability) {
						t.Errorf("%s iter %d: Report: %v", id, i, err)
						return
					}
					durabilityErrs.Add(1)
				}
				if iter != i+1 {
					t.Errorf("%s iter %d: session did not advance in memory: iter %d", id, i, iter)
					return
				}
				if err := refs[g].Report(o); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if durabilityErrs.Load() == 0 {
		t.Fatal("fault bursts never surfaced ErrDurability — the hammer tested nothing")
	}

	// Fault clears: one clean interval per session flushes each backlog.
	faulting.Store(false)
	for g := 0; g < n; g++ {
		managedStep(t, m, fmt.Sprintf("db-%d", g), refs[g], iters)
	}
	st := m.Stats()
	if st.GroupCommits == 0 {
		t.Fatalf("hammer never exercised group commit: %+v", st)
	}
	if st.DurabilityRetries == 0 {
		t.Fatalf("burst edges never exercised the retry: %+v", st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManagerOpts(stateDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for g := 0; g < n; g++ {
		managedStep(t, m2, fmt.Sprintf("db-%d", g), refs[g], iters+1)
	}
}

// TestManagerGroupCommitExactSyncPoints pins the coalescing contract as
// exact counters: with the committer on, K operations in flight on K
// sessions cost ONE sync point and ONE group commit; without it, K. The
// window is an hour and CommitBatch is K, so a batch can only commit by
// filling — nothing here depends on timing. Every advice must equal an
// uninterrupted in-memory reference session's in both arms.
func TestManagerGroupCommitExactSyncPoints(t *testing.T) {
	const k, rounds = 8, 4
	id := func(g int) string { return fmt.Sprintf("db-%d", g) }
	cfg := func(g int) Config { return Config{Space: "case5", Seed: int64(300 + g)} }

	want := make([][]Advice, k)
	for g := range want {
		ref, err := NewSession(cfg(g))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rounds; i++ {
			adv, err := ref.Suggest(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want[g] = append(want[g], adv)
			if err := ref.Report(goldenOutcome(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	arm := func(name string, opts ManagerOptions, wantFsyncs, wantGroupCommits int64) {
		m, err := NewManagerOpts(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for g := 0; g < k; g++ {
			if _, err := m.Create(id(g), cfg(g)); err != nil {
				t.Fatal(err)
			}
		}
		// step runs op on all K sessions at once and checks what the K
		// operations cost together.
		step := func(what string, op func(g int) error) {
			before := m.Stats()
			var wg sync.WaitGroup
			for g := 0; g < k; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					if err := op(g); err != nil {
						t.Errorf("%s %s %s: %v", name, what, id(g), err)
					}
				}(g)
			}
			wg.Wait()
			after := m.Stats()
			if got := after.Fsyncs - before.Fsyncs; got != wantFsyncs {
				t.Fatalf("%s %s: %d operations cost %d sync points, want %d (compactions %d)",
					name, what, k, got, wantFsyncs, after.Compactions)
			}
			if got := after.GroupCommits - before.GroupCommits; got != wantGroupCommits {
				t.Fatalf("%s %s: %d operations cost %d group commits, want %d", name, what, k, got, wantGroupCommits)
			}
		}
		for i := 0; i < rounds; i++ {
			step(fmt.Sprintf("suggest %d", i), func(g int) error {
				adv, err := m.Suggest(context.Background(), id(g))
				if err == nil && !reflect.DeepEqual(adv, want[g][i]) {
					err = errors.New("advice diverged from the in-memory reference")
				}
				return err
			})
			step(fmt.Sprintf("report %d", i), func(g int) error {
				_, err := m.Report(id(g), goldenOutcome(i))
				return err
			})
		}
	}
	arm("group commit", ManagerOptions{NoFsync: true, CommitInterval: time.Hour, CommitBatch: k, MaxResident: -1}, 1, 1)
	arm("per-session fsync", ManagerOptions{NoFsync: true, MaxResident: -1}, k, 0)
}

// TestManagerJournalBootRecovery reconstructs the crash the journal
// exists for: a session log that lost its flushed-but-unfsynced tail
// (power failure), with the group-commit journal holding the only
// durable copy of those records — plus a stale duplicate and a record
// for a session with no on-disk base, which recovery must drop. Boot
// must patch exactly the lost records, truncate the journal, and serve
// reference-identical advice.
func TestManagerJournalBootRecovery(t *testing.T) {
	stateDir := t.TempDir()
	opts := ManagerOptions{NoFsync: true, CompactMin: 1000}
	m, err := NewManagerOpts(stateDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Space: "case5", Seed: 7}
	if _, err := m.Create("db", cfg); err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 6
	for i := 0; i < iters; i++ {
		managedStep(t, m, "db", ref, i)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Cut the last records off the session log, as a power failure after
	// Flush (page cache) but before any fsync would.
	walPath := filepath.Join(stateDir, "db.wal")
	lg, recs, err := wal.Open(walPath, wal.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	const drop = 3
	if len(recs) <= drop {
		t.Fatalf("only %d wal records; need more than %d", len(recs), drop)
	}
	keep := len(recs) - drop
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	lg2, _, err := wal.Open(walPath, wal.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range recs[:keep] {
		if err := lg2.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg2.Commit(); err != nil {
		t.Fatal(err)
	}
	lg2.Close()

	// The journal's surviving contents: a record the log already holds
	// (skipped), the lost tail (patched), and a ghost session's record
	// (dropped — no base file anchors it).
	jPath := filepath.Join(stateDir, "fleet.journal")
	j, _, err := wal.Open(jPath, wal.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(wal.EncodeJournalRecord("db", recs[keep-1])); err != nil {
		t.Fatal(err)
	}
	for _, p := range recs[keep:] {
		if err := j.Append(wal.EncodeJournalRecord("db", p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(wal.EncodeJournalRecord("ghost", recs[0])); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	m2, err := NewManagerOpts(stateDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if st := m2.Stats(); st.JournalPatchedRecords != drop {
		t.Fatalf("patched %d journal records, want %d (stats %+v)", st.JournalPatchedRecords, drop, st)
	}
	if fi, err := os.Stat(jPath); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not emptied after recovery: size %d, err %v", fi.Size(), err)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "ghost.wal")); !os.IsNotExist(err) {
		t.Fatal("recovery materialized a log for the ghost session")
	}
	managedStep(t, m2, "db", ref, iters)
}

// TestJournalDropsDeletedIncarnationOnRecreate: an id deleted and
// recreated between two journal rotations leaves both incarnations'
// records in the journal. After kill -9 (every byte reached the OS, no
// Close ran) boot recovery must patch nothing from the dead incarnation
// — its indices continue past the new log's tail and would otherwise be
// appended as if they extended it.
func TestJournalDropsDeletedIncarnationOnRecreate(t *testing.T) {
	stateDir := t.TempDir()
	opts := ManagerOptions{NoFsync: true, CompactMin: 1000, CommitInterval: 200 * time.Microsecond}
	m, err := NewManagerOpts(stateDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() // after m2's: the "killed" process never closes in time to matter
	run := func(seed int64, iters int) *Session {
		cfg := Config{Space: "case5", Seed: seed}
		if _, err := m.Create("db", cfg); err != nil {
			t.Fatal(err)
		}
		ref, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < iters; i++ {
			managedStep(t, m, "db", ref, i)
		}
		return ref
	}
	run(7, 6)
	if err := m.Delete("db"); err != nil {
		t.Fatal(err)
	}
	ref := run(8, 2)
	acked, err := m.Snapshot("db")
	if err != nil {
		t.Fatal(err)
	}

	m2, err := NewManagerOpts(stateDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if st := m2.Stats(); st.JournalPatchedRecords != 0 {
		t.Fatalf("boot patched %d journal records into a log that had lost none", st.JournalPatchedRecords)
	}
	got, err := m2.Snapshot("db")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, acked) {
		t.Fatal("recreated session recovered to a snapshot other than the one acked before the crash")
	}
	managedStep(t, m2, "db", ref, 2)
}

// TestWalEncoderMatchesMarshal pins the zero-alloc encoder's contract:
// its payloads are byte-for-byte what json.Marshal produces, so pooling
// cannot perturb WAL contents or replay.
func TestWalEncoderMatchesMarshal(t *testing.T) {
	evs := encoderBenchEvents(t, 5)
	wenc := walEncoders.Get().(*walEncoder)
	defer walEncoders.Put(wenc)
	payloads, err := wenc.encode(evs, 2, 7, "canary")
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != len(evs) {
		t.Fatalf("encoded %d payloads for %d events", len(payloads), len(evs))
	}
	for i, ev := range evs {
		want, err := json.Marshal(walRecord{Idx: 2 + i, Iter: 7, Phase: "canary", Event: ev})
		if err != nil {
			t.Fatal(err)
		}
		if string(payloads[i]) != string(want) {
			t.Fatalf("payload %d diverges from json.Marshal\npooled:  %s\nmarshal: %s", i, payloads[i], want)
		}
	}
}

// encoderBenchEvents produces a realistic event tail by driving a real
// session for a few intervals.
func encoderBenchEvents(tb testing.TB, intervals int) []event {
	tb.Helper()
	s, err := NewSession(Config{Space: "case5", Seed: 11})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < intervals; i++ {
		if _, err := s.Suggest(context.Background()); err != nil {
			tb.Fatal(err)
		}
		if err := s.Report(goldenOutcome(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return s.eventsSince(0)
}

// BenchmarkCheckpointEncode audits the pooled encoder with -benchmem:
// the pooled arm must report ~zero allocations per operation at steady
// state, against the per-record json.Marshal it replaced.
func BenchmarkCheckpointEncode(b *testing.B) {
	evs := encoderBenchEvents(b, 8)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wenc := walEncoders.Get().(*walEncoder)
			if _, err := wenc.encode(evs, 0, 8, ""); err != nil {
				b.Fatal(err)
			}
			walEncoders.Put(wenc)
		}
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, ev := range evs {
				if _, err := json.Marshal(walRecord{Idx: j, Iter: 8, Event: ev}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
