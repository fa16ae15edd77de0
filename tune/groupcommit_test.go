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
		MaxResident: 1, NoFsync: true,
		CommitInterval: 300 * time.Microsecond,
	}
	m, err := openManager(stateDir, opts, 8)
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
		if m, err = openManager(stateDir, opts, 8); err != nil {
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
		if adv.RolloutPhase == RolloutTuning {
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

// TestManagerGroupCommitExactSyncPoints pins the sync-point contract as
// counters: K suggests in flight on K sessions cost no sync point and no
// group commit (each is written, and its session's next commit syncs
// it); K reports cost one sync point per group commit, and between 1 and
// K group commits — how many of the K share a batch depends on when each
// reaches the committer (wal's TestCommitterCoalesces pins exact
// coalescing). Every advice must equal an uninterrupted in-memory
// reference session's.
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

	m, err := NewManagerOpts(t.TempDir(), ManagerOptions{NoFsync: true, MaxResident: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for g := 0; g < k; g++ {
		if _, err := m.Create(id(g), cfg(g)); err != nil {
			t.Fatal(err)
		}
	}
	// step runs op on all K sessions at once and returns what the K
	// operations cost together.
	step := func(what string, op func(g int) error) (fsyncs, groupCommits int64) {
		before := m.Stats()
		var wg sync.WaitGroup
		for g := 0; g < k; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if err := op(g); err != nil {
					t.Errorf("%s %s: %v", what, id(g), err)
				}
			}(g)
		}
		wg.Wait()
		after := m.Stats()
		return after.Fsyncs - before.Fsyncs, after.GroupCommits - before.GroupCommits
	}
	for i := 0; i < rounds; i++ {
		fsyncs, commits := step("suggest", func(g int) error {
			adv, err := m.Suggest(context.Background(), id(g))
			if err == nil && !reflect.DeepEqual(adv, want[g][i]) {
				err = errors.New("advice diverged from the in-memory reference")
			}
			return err
		})
		if fsyncs != 0 || commits != 0 {
			t.Fatalf("suggest %d: %d suggests cost %d sync points and %d group commits, want 0 and 0", i, k, fsyncs, commits)
		}
		fsyncs, commits = step("report", func(g int) error {
			_, err := m.Report(id(g), goldenOutcome(i))
			return err
		})
		if fsyncs != commits || commits < 1 || commits > k {
			t.Fatalf("report %d: %d reports cost %d sync points and %d group commits, want one per commit and 1 to %d commits",
				i, k, fsyncs, commits, k)
		}
	}
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
	opts := ManagerOptions{NoFsync: true}
	m, err := openManager(stateDir, opts, 1000)
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

	m2, err := openManager(stateDir, opts, 1000)
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
	opts := ManagerOptions{NoFsync: true, CommitInterval: 200 * time.Microsecond}
	m, err := openManager(stateDir, opts, 1000)
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

	m2, err := openManager(stateDir, opts, 1000)
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

// syncArms is the commit path the durability tests run: the shared
// committer with no batch window. compactMin keeps every record in the
// log's tail, so cutting the tail models what power loss drops.
var syncArms = []struct {
	name       string
	opts       ManagerOptions
	compactMin int
}{
	{"group commit", ManagerOptions{NoFsync: true}, 1000},
}

// syncTracker follows one session's log through a manager's operations
// and keeps its size at the last sync point: what a power failure
// leaves of it.
type syncTracker struct {
	t       *testing.T
	m       *Manager
	path    string
	last    ManagerStats
	durable int64
}

func newSyncTracker(t *testing.T, m *Manager, dir, id string) *syncTracker {
	tr := &syncTracker{t: t, m: m, path: filepath.Join(dir, id+".wal")}
	tr.note()
	return tr
}

func (tr *syncTracker) size() int64 {
	tr.t.Helper()
	fi, err := os.Stat(tr.path)
	if err != nil {
		tr.t.Fatal(err)
	}
	return fi.Size()
}

// note accounts for the operations since the last note: it returns the
// sync points and group commits they cost, and the stats after them. If
// they cost a sync point, the log's current size is durable.
func (tr *syncTracker) note() (fsyncs, groupCommits int64, st ManagerStats) {
	tr.t.Helper()
	st = tr.m.Stats()
	fsyncs, groupCommits = st.Fsyncs-tr.last.Fsyncs, st.GroupCommits-tr.last.GroupCommits
	tr.last = st
	if fsyncs > 0 {
		tr.durable = tr.size()
	}
	return fsyncs, groupCommits, st
}

// crashCopy copies the state directory dir, as the disk holds it when
// the process dies, into a fresh directory and opens a manager on it.
// A walSize ≥ 0 cuts the copy of id's log to that many bytes, as a power
// failure keeps only what a sync covered; the journal is kept as is.
func crashCopy(t *testing.T, dir, id string, walSize int64, opts ManagerOptions, compactMin int) *Manager {
	t.Helper()
	cp := filepath.Join(t.TempDir(), "state")
	if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	if walSize >= 0 {
		if err := os.Truncate(filepath.Join(cp, id+".wal"), walSize); err != nil {
			t.Fatal(err)
		}
	}
	m, err := openManager(cp, opts, compactMin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// sameSnapshot fails unless the session id serializes to the same bytes
// on both managers.
func sameSnapshot(t *testing.T, a, b *Manager, id string) {
	t.Helper()
	sa, err := a.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("recovered session's snapshot differs from the live session's")
	}
}

// continueBoth reports the same outcomes to session id on the live
// manager and on each recovered one for n intervals, starting with the
// report of the suggest they all hold; every later advice must agree
// with the live one, and so must the final snapshots.
func continueBoth(t *testing.T, id string, from, n int, live *Manager, recovered ...*Manager) {
	t.Helper()
	all := append([]*Manager{live}, recovered...)
	for i := from; i < from+n; i++ {
		var want Advice
		for k, m := range all {
			if _, err := m.Report(id, goldenOutcome(i)); err != nil {
				t.Fatal(err)
			}
			got, err := m.Suggest(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("interval %d: recovered session's advice diverged", i)
			}
		}
	}
	for _, m := range recovered {
		sameSnapshot(t, live, m, id)
	}
}

// runAckedSuggest drives a case5 session through n intervals, then one
// more Suggest, and checks that the acked suggest cost no sync point yet
// was written to the log before its ack.
func runAckedSuggest(t *testing.T, dir string, opts ManagerOptions, compactMin, n int) (*Manager, *syncTracker, Advice) {
	t.Helper()
	m, err := openManager(dir, opts, compactMin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	cfg := Config{Space: "case5", Seed: 11}
	if _, err := m.Create("db", cfg); err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newSyncTracker(t, m, dir, "db")
	for i := 0; i < n; i++ {
		managedStep(t, m, "db", ref, i)
	}
	tr.note()
	adv, err := m.Suggest(context.Background(), "db")
	if err != nil {
		t.Fatal(err)
	}
	if fs, gc, _ := tr.note(); fs != 0 || gc != 0 {
		t.Fatalf("an acked suggest cost %d sync points and %d group commits, want 0 and 0", fs, gc)
	}
	if tr.size() == tr.durable {
		t.Fatal("the suggest's record was not written to the log before its ack")
	}
	return m, tr, adv
}

// TestManagerSuggestPowerLoss: a suggest is acked before any sync covers
// it, so a power failure may drop its record. The log is cut back to its
// size at the last report's ack, and also to nothing, as its own bytes
// were never synced after the creation's reset and the journal alone
// holds its records. A Manager on each cut state
// must answer the retried Suggest with the very advice that was acked,
// and the sessions must then stay bit-identical.
func TestManagerSuggestPowerLoss(t *testing.T) {
	const n = 6
	for _, arm := range syncArms {
		t.Run(arm.name, func(t *testing.T) {
			dir := t.TempDir()
			m, tr, acked := runAckedSuggest(t, dir, arm.opts, arm.compactMin, n)
			var recovered []*Manager
			for _, cut := range []int64{tr.durable, 0} {
				m2 := crashCopy(t, dir, "db", cut, arm.opts, arm.compactMin)
				retried, err := m2.Suggest(context.Background(), "db")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(retried, acked) {
					t.Fatalf("log cut to %d bytes: retried suggest diverged from the acked one\nacked:   %+v\nretried: %+v", cut, acked, retried)
				}
				recovered = append(recovered, m2)
			}
			continueBoth(t, "db", n, 4, m, recovered...)
		})
	}
}

// TestManagerSuggestKill9: the acked suggest's record reached the OS
// before the ack, so a killed process loses nothing — a Manager on the
// state as it stands hydrates with the suggest applied and continues
// bit-identically.
func TestManagerSuggestKill9(t *testing.T) {
	const n = 6
	for _, arm := range syncArms {
		t.Run(arm.name, func(t *testing.T) {
			dir := t.TempDir()
			m, _, _ := runAckedSuggest(t, dir, arm.opts, arm.compactMin, n)
			m2 := crashCopy(t, dir, "db", -1, arm.opts, arm.compactMin)
			sameSnapshot(t, m, m2, "db")
			continueBoth(t, "db", n, 4, m, m2)
		})
	}
}

// TestManagerKnowledgeSuggestSyncs: a suggest that queried the fleet
// store logged an input the session's log cannot re-derive, so it costs
// one sync point — one group commit — before it returns, and a power
// failure right after its ack keeps it; every other suggest costs
// nothing.
func TestManagerKnowledgeSuggestSyncs(t *testing.T) {
	for _, arm := range syncArms {
		t.Run(arm.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := arm.opts
			opts.Knowledge = true
			m, err := openManager(dir, opts, arm.compactMin)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if _, err := m.Create("db", Config{Space: "case5", Seed: 5}); err != nil {
				t.Fatal(err)
			}
			tr := newSyncTracker(t, m, dir, "db")
			queried, plain := 0, 0
			for i := 0; i < 8; i++ {
				before := tr.last.Knowledge.Queries
				if _, err := m.Suggest(context.Background(), "db"); err != nil {
					t.Fatal(err)
				}
				fs, gc, st := tr.note()
				if st.Knowledge.Queries == before {
					plain++
					if fs != 0 || gc != 0 {
						t.Fatalf("suggest %d: queried nothing yet cost %d sync points and %d group commits", i, fs, gc)
					}
				} else {
					queried++
					if fs != 1 || gc != 1 {
						t.Fatalf("suggest %d: queried the fleet store and cost %d sync points and %d group commits, want 1 and 1", i, fs, gc)
					}
					m2 := crashCopy(t, dir, "db", tr.durable, opts, arm.compactMin)
					sameSnapshot(t, m, m2, "db")
					m2.Close()
				}
				if _, err := m.Report("db", goldenOutcome(i)); err != nil {
					t.Fatal(err)
				}
				tr.note()
			}
			if queried == 0 || plain == 0 {
				t.Fatalf("%d suggests queried the fleet store and %d did not; the test needs both", queried, plain)
			}
		})
	}
}

// TestManagerEvictionSyncsOnce: each log is synced once. With
// MaxResident 1, a Report on an evicted session evicts the other, whose
// log holds a staged but unsynced suggest: the report's group commit is
// the one sync point, as the eviction only closes the log and leaves its
// sync to the committer. Closing afterwards costs the committer's final
// syncs of both logs by path plus the journal's reset.
func TestManagerEvictionSyncsOnce(t *testing.T) {
	for _, arm := range syncArms {
		t.Run(arm.name, func(t *testing.T) {
			opts := arm.opts
			opts.MaxResident = 1
			dir := t.TempDir()
			m, err := openManager(dir, opts, arm.compactMin)
			if err != nil {
				t.Fatal(err)
			}
			for g, id := range []string{"a", "b"} {
				if _, err := m.Create(id, Config{Space: "case5", Seed: int64(20 + g)}); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []string{"a", "b"} {
				if _, err := m.Suggest(context.Background(), id); err != nil {
					t.Fatal(err)
				}
			}
			before := m.Stats()
			if _, err := m.Report("a", goldenOutcome(0)); err != nil {
				t.Fatal(err)
			}
			after := m.Stats()
			if got := after.Evictions - before.Evictions; got != 1 {
				t.Fatalf("the report evicted %d sessions, want 1", got)
			}
			if got := after.Fsyncs - before.Fsyncs; got != 1 {
				t.Fatalf("a report that evicts a session cost %d sync points, want 1", got)
			}
			if got := after.GroupCommits - before.GroupCommits; got != 1 {
				t.Fatalf("the report cost %d group commits, want 1", got)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if got := m.Stats().Fsyncs - after.Fsyncs; got != 3 {
				t.Fatalf("Close with one resident session cost %d sync points, want 3", got)
			}
		})
	}
}

// TestManagerEvictionSyncsOnlyDebt: eviction never syncs a log. With
// MaxResident 1, creating a second session evicts the first, whose log
// was reset at its creation and never written since: the create costs
// its base write and its log reset, and nothing for the eviction. A log
// that the journal still covers (its last op a report) costs nothing to
// evict either: its debt stays with the journal, whose rotation or
// shutdown syncs it by path.
func TestManagerEvictionSyncsOnlyDebt(t *testing.T) {
	m, err := NewManagerOpts(t.TempDir(), ManagerOptions{NoFsync: true, MaxResident: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	create := func(id string, seed int64, want int64) {
		t.Helper()
		before := m.Stats()
		if _, err := m.Create(id, Config{Space: "case5", Seed: seed}); err != nil {
			t.Fatal(err)
		}
		after := m.Stats()
		if got := after.Evictions - before.Evictions; got != 1 {
			t.Fatalf("creating %s evicted %d sessions, want 1", id, got)
		}
		if got := after.Fsyncs - before.Fsyncs; got != want {
			t.Fatalf("creating %s cost %d sync points, want %d", id, got, want)
		}
	}
	if _, err := m.Create("a", Config{Space: "case5", Seed: 20}); err != nil {
		t.Fatal(err)
	}
	create("b", 21, 2)
	if _, err := m.Suggest(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Report("b", goldenOutcome(0)); err != nil {
		t.Fatal(err)
	}
	create("c", 22, 2)
}

// TestManagerEvictionKeepsJournaledReport: a session whose last op was a
// report is evicted at no sync point, so the journal alone holds that
// report durably. A power failure that cuts the log back to its size at
// its last sync, the creation's reset, keeps the acked report: boot
// patches it and the suggest before it back from the journal, and the
// recovered session serializes to the live one's bytes.
func TestManagerEvictionKeepsJournaledReport(t *testing.T) {
	dir := t.TempDir()
	opts := syncArms[0].opts
	opts.MaxResident = 1
	m, err := openManager(dir, opts, syncArms[0].compactMin)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Create("a", Config{Space: "case5", Seed: 20}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "a.wal"))
	if err != nil {
		t.Fatal(err)
	}
	synced := fi.Size()
	if _, err := m.Create("b", Config{Space: "case5", Seed: 21}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Suggest(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Report("a", goldenOutcome(0)); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	if _, err := m.Suggest(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	after := m.Stats()
	if got := after.Evictions - before.Evictions; got != 1 {
		t.Fatalf("touching b evicted %d sessions, want 1", got)
	}
	if got := after.Fsyncs - before.Fsyncs; got != 0 {
		t.Fatalf("evicting a after its report cost %d sync points, want 0", got)
	}
	m2 := crashCopy(t, dir, "a", synced, opts, syncArms[0].compactMin)
	if got := m2.Stats().JournalPatchedRecords; got != 2 {
		t.Fatalf("boot patched %d journal records, want a's suggest and report", got)
	}
	sameSnapshot(t, m, m2, "a")
}

// TestManagerStagedSuggestRidesAnyBatch: a suggest is staged in the
// journal, so the next batch of any session makes it durable. Session a
// suggests, then session b reports: a power failure that cuts a's log
// back to its size at its last sync, the creation's reset, keeps the
// acked suggest, since boot patches it back from the journal, and the
// recovered session serializes to the live one's bytes.
func TestManagerStagedSuggestRidesAnyBatch(t *testing.T) {
	dir := t.TempDir()
	opts := syncArms[0].opts
	m, err := openManager(dir, opts, syncArms[0].compactMin)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for g, id := range []string{"a", "b"} {
		if _, err := m.Create(id, Config{Space: "case5", Seed: int64(20 + g)}); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, "a.wal"))
	if err != nil {
		t.Fatal(err)
	}
	synced := fi.Size()
	for _, id := range []string{"a", "b"} {
		if _, err := m.Suggest(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Stats()
	if _, err := m.Report("b", goldenOutcome(0)); err != nil {
		t.Fatal(err)
	}
	after := m.Stats()
	if fs, gc := after.Fsyncs-before.Fsyncs, after.GroupCommits-before.GroupCommits; fs != 1 || gc != 1 {
		t.Fatalf("b's report cost %d sync points and %d group commits, want 1 and 1", fs, gc)
	}
	m2 := crashCopy(t, dir, "a", synced, opts, syncArms[0].compactMin)
	if got := m2.Stats().JournalPatchedRecords; got != 1 {
		t.Fatalf("boot patched %d journal records, want a's suggest", got)
	}
	sameSnapshot(t, m, m2, "a")
}

// TestManagerDeleteEvictedForgetsLog: deleting an evicted session whose
// last op was a report releases the journal's hold on its log, so the
// committer's final sync does not open the removed file and Close
// leaves the journal empty. Real fsyncs, so that sync opens the file.
func TestManagerDeleteEvictedForgetsLog(t *testing.T) {
	m, err := NewManagerOpts(t.TempDir(), ManagerOptions{MaxResident: 1})
	if err != nil {
		t.Fatal(err)
	}
	for g, id := range []string{"a", "b"} {
		if _, err := m.Create(id, Config{Space: "case5", Seed: int64(20 + g)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Suggest(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Report("a", goldenOutcome(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Suggest(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Evicted != 1 {
		t.Fatalf("%d sessions evicted, want a alone", st.Evicted)
	}
	if err := m.Delete("a"); err != nil {
		t.Fatal(err)
	}
	closeLeavesJournalEmpty(t, m)
}

// TestManagerDeleteAfterSuggestSyncsNothing: deleting a resident session
// whose last op was a suggest closes its log without syncing the staged
// suggest into a file the delete then removes.
func TestManagerDeleteAfterSuggestSyncsNothing(t *testing.T) {
	m, err := openManager(t.TempDir(), syncArms[0].opts, syncArms[0].compactMin)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Create("a", Config{Space: "case5", Seed: 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Suggest(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	before := m.Stats().Fsyncs
	if err := m.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Fsyncs - before; got != 0 {
		t.Fatalf("deleting a after its suggest cost %d sync points, want 0", got)
	}
}

// TestManagerCloseSyncsOnce: a Close whose resident session's last op
// was a suggest syncs that session's log once. Its report and the
// trailing suggest are journaled, and closing the log syncs nothing, so
// Close costs the committer's sync of the log by path plus the
// journal's reset.
func TestManagerCloseSyncsOnce(t *testing.T) {
	for _, arm := range syncArms {
		t.Run(arm.name, func(t *testing.T) {
			m, err := openManager(t.TempDir(), arm.opts, arm.compactMin)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Create("a", Config{Space: "case5", Seed: 20}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := m.Suggest(context.Background(), "a"); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					if _, err := m.Report("a", goldenOutcome(0)); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := m.Stats().Fsyncs
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if got := m.Stats().Fsyncs - before; got != 2 {
				t.Fatalf("Close after a trailing suggest cost %d sync points, want 2", got)
			}
		})
	}
}

// TestManagerSyncBudget pins one sync point per interval as an exact
// budget over case5 sessions at seeds 1 and 2: every group commit is a
// report's or that of a suggest that queried the fleet store, and every
// other sync point is one of a compaction's two (its base write and its
// log reset): the fleet store's contributions ride their reports' group
// commits.
func TestManagerSyncBudget(t *testing.T) {
	const intervals = 100
	ids := []string{"s1", "s2"}
	run := func(opts ManagerOptions) (reports, queried int64, st ManagerStats) {
		m, err := NewManagerOpts(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for g, id := range ids {
			if _, err := m.Create(id, Config{Space: "case5", Seed: int64(g + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		queries := func() int64 {
			if ks := m.Stats().Knowledge; ks != nil {
				return ks.Queries
			}
			return 0
		}
		for i := 0; i < intervals; i++ {
			for _, id := range ids {
				before := queries()
				if _, err := m.Suggest(context.Background(), id); err != nil {
					t.Fatal(err)
				}
				if queries() > before {
					queried++
				}
				if _, err := m.Report(id, goldenOutcome(i)); err != nil {
					t.Fatal(err)
				}
				reports++
			}
		}
		return reports, queried, m.Stats()
	}

	reports, queried, st := run(ManagerOptions{NoFsync: true, Knowledge: true})
	if st.Compactions <= int64(len(ids)) {
		t.Fatalf("only %d compactions; the budget needs some beyond the creations'", st.Compactions)
	}
	if queried == 0 {
		t.Fatal("no suggest queried the fleet store")
	}
	if want := reports + queried; st.GroupCommits != want {
		t.Fatalf("group commit: %d group commits for %d reports and %d suggests that queried the fleet store, want %d",
			st.GroupCommits, reports, queried, want)
	}
	if st.Knowledge.Contributions == 0 {
		t.Fatal("nothing was contributed to the fleet store")
	}
	if want := st.GroupCommits + 2*st.Compactions; st.Fsyncs != want {
		t.Fatalf("group commit: %d sync points for %d group commits, %d compactions and %d contributions, want %d",
			st.Fsyncs, st.GroupCommits, st.Compactions, st.Knowledge.Contributions, want)
	}
}

// TestWalEncoderMatchesMarshal pins the zero-alloc encoder's contract:
// its payloads are byte-for-byte what json.Marshal produces, so pooling
// cannot perturb WAL contents or replay.
func TestWalEncoderMatchesMarshal(t *testing.T) {
	wenc := walEncoders.Get().(*walEncoder)
	defer walEncoders.Put(wenc)
	for i, rec := range encoderBenchRecords(t, 5) {
		payload, err := wenc.encode(&rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(payload) != string(want) {
			t.Fatalf("payload %d diverges from json.Marshal\npooled:  %s\nmarshal: %s", i, payload, want)
		}
	}
}

// encoderBenchRecords produces realistic WAL records by driving a real
// session for a few intervals.
func encoderBenchRecords(tb testing.TB, intervals int) []walRecord {
	tb.Helper()
	s, err := NewSession(Config{Space: "case5", Seed: 11})
	if err != nil {
		tb.Fatal(err)
	}
	var recs []walRecord
	for i := 0; i < intervals; i++ {
		_, rec, err := s.suggest(context.Background())
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, rec, s.report(goldenOutcome(i)))
	}
	return recs
}

// BenchmarkCheckpointEncode audits the pooled encoder with -benchmem:
// the pooled arm must report ~zero allocations per operation at steady
// state, against the per-record json.Marshal it replaced. One operation
// encodes the 16 records of 8 intervals, one call per record.
func BenchmarkCheckpointEncode(b *testing.B) {
	recs := encoderBenchRecords(b, 8)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wenc := walEncoders.Get().(*walEncoder)
			for j := range recs {
				if _, err := wenc.encode(&recs[j]); err != nil {
					b.Fatal(err)
				}
			}
			walEncoders.Put(wenc)
		}
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, rec := range recs {
				if _, err := json.Marshal(rec); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
