package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/knowledge"
	"repro/internal/wal"
)

// knowOutcome builds a deterministic safe outcome (perf above baseline).
func knowOutcome(i int, perf float64) Outcome {
	return Outcome{
		Workload: Workload{
			Statements: []Statement{
				{SQL: "SELECT c_balance FROM customer WHERE c_id = 7", Weight: 2},
				{SQL: "UPDATE warehouse SET w_ytd = w_ytd + 1 WHERE w_id = 3", Weight: 1},
			},
			Unlimited: true,
			ReadFrac:  0.7,
			Skew:      0.4,
			DataGB:    12,
		},
		Metrics:     Metrics{BufferPoolHitRate: 0.95, QPS: perf},
		Performance: perf,
		Baseline:    100,
	}
}

// driveInterval runs one suggest/report pair, attaching a winning shadow
// measurement whenever the session's rollout stages a canary.
func driveInterval(t *testing.T, suggest func() (Advice, error), report func(Outcome) error, i int) Advice {
	t.Helper()
	adv, err := suggest()
	if err != nil {
		t.Fatal(err)
	}
	o := knowOutcome(i, 115+float64(i%4))
	if adv.RolloutPhase == RolloutTuning {
		o.Measurements = map[Role]ReplicaPerf{RoleStaged: {Performance: 125 + float64(i%3)}}
	}
	if err := report(o); err != nil {
		t.Fatal(err)
	}
	return adv
}

// TestManagerFleetWarmStart: a session served by a knowledge-enabled
// manager contributes its safe observations, and the next session's
// first (cold) suggestion queries the fleet store and logs the advice
// into its event log.
func TestManagerFleetWarmStart(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManagerOpts(dir, ManagerOptions{Knowledge: true, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Create("donor", Config{Space: "case5", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		driveInterval(t,
			func() (Advice, error) { return m.Suggest(ctx, "donor") },
			func(o Outcome) error { _, err := m.Report("donor", o); return err }, i)
	}
	st := m.Stats().Knowledge
	if st == nil {
		t.Fatal("knowledge stats unavailable on a knowledge-enabled manager")
	}
	if st.Contributions == 0 || st.Entries == 0 {
		t.Fatalf("donor contributed nothing: %+v", st)
	}

	if _, err := m.Create("warm", Config{Space: "case5", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Suggest(ctx, "warm"); err != nil {
		t.Fatal(err)
	}
	st = m.Stats().Knowledge
	if st.Queries == 0 || st.WarmStarts == 0 {
		t.Fatalf("cold session did not warm-start from the fleet store: %+v", st)
	}
	data, err := os.ReadFile(filepath.Join(dir, "warm.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"kind":"suggest","knowledge":[{`)) {
		t.Fatal("warm session's suggest record carries no fleet advice")
	}
	if mgr := m.Stats(); mgr.Knowledge == nil || mgr.Knowledge.WarmStarts == 0 {
		t.Fatalf("ManagerStats.Knowledge missing warm starts: %+v", mgr.Knowledge)
	}
}

// TestManagerKnowledgeRestartEquivalence is the restart-equivalence
// property: a manager killed without shutdown — including a torn
// (mid-contribution) final record in the knowledge WAL — must reopen to
// a store whose export is bitwise identical to the pre-crash one, and
// its hydrated sessions must keep producing advice bitwise identical to
// a manager that never restarted.
func TestManagerKnowledgeRestartEquivalence(t *testing.T) {
	for _, arm := range syncArms {
		t.Run(arm.name, func(t *testing.T) {
			opts := arm.opts
			opts.Knowledge = true
			crashDir, controlDir := t.TempDir(), t.TempDir()
			m1, err := openManager(crashDir, opts, arm.compactMin)
			if err != nil {
				t.Fatal(err)
			}
			mc, err := openManager(controlDir, opts, arm.compactMin)
			if err != nil {
				t.Fatal(err)
			}
			defer mc.Close()

			ctx := context.Background()
			ids := []string{"s1", "s2"}
			for _, id := range ids {
				cfg := Config{Space: "case5", Seed: int64(len(id)), Rollout: &RolloutConfig{Window: 2}}
				if _, err := m1.Create(id, cfg); err != nil {
					t.Fatal(err)
				}
				if _, err := mc.Create(id, cfg); err != nil {
					t.Fatal(err)
				}
			}
			drive := func(m *Manager, id string, i int) Advice {
				return driveInterval(t,
					func() (Advice, error) { return m.Suggest(ctx, id) },
					func(o Outcome) error { _, err := m.Report(id, o); return err }, i)
			}
			for i := 0; i < 12; i++ {
				for _, id := range ids {
					a1, ac := drive(m1, id, i), drive(mc, id, i)
					if !reflect.DeepEqual(a1, ac) {
						t.Fatalf("pre-crash arms diverged at iter %d session %s", i, id)
					}
				}
			}
			export1, err := m1.KnowledgeExport()
			if err != nil {
				t.Fatal(err)
			}
			if st := m1.Stats().Knowledge; st.Contributions == 0 {
				t.Fatal("nothing contributed; the restart property would be vacuous")
			}

			// Crash: no Close. A torn final record simulates dying mid-append of
			// a contribution; recovery must truncate it, not fail or double-apply.
			f, err := os.OpenFile(m1.knowledgeWALPath(), os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0x7f, 0x01, 0xab}); err != nil {
				t.Fatal(err)
			}
			f.Close()

			m2, err := openManager(crashDir, opts, arm.compactMin)
			if err != nil {
				t.Fatalf("reopening after simulated crash: %v", err)
			}
			defer m2.Close()
			export2, err := m2.KnowledgeExport()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(export1, export2) {
				t.Fatalf("restarted store diverged from pre-crash export:\n%s\nvs\n%s", export1, export2)
			}
			st2 := m2.Stats().Knowledge
			stc := mc.Stats().Knowledge
			if st2.Contributions != stc.Contributions || st2.Entries != stc.Entries {
				t.Fatalf("restarted store %+v does not match never-restarted control %+v", st2, stc)
			}
			for i := 12; i < 20; i++ {
				for _, id := range ids {
					a2, ac := drive(m2, id, i), drive(mc, id, i)
					if !reflect.DeepEqual(a2, ac) {
						t.Fatalf("post-restart advice diverged at iter %d session %s:\n%+v\nvs\n%+v", i, id, a2, ac)
					}
				}
			}
		})
	}
}

// TestManagerKnowledgeContributionPowerLoss: a power failure cuts
// fleet.knowledge-wal back to its size at its last own sync and keeps
// the journal intact. Every sync point that is not a group commit would
// be a log's own sync (no compaction or rotation runs here), and none
// runs — a contribution rides its report's group commit — so the cut
// drops every contribution from the log and boot must patch them back
// from the journal. The store must recover an export byte-identical to
// the live one.
func TestManagerKnowledgeContributionPowerLoss(t *testing.T) {
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
			if _, err := m.Create("db", Config{Space: "case5", Seed: 7}); err != nil {
				t.Fatal(err)
			}
			size := func() int64 {
				fi, err := os.Stat(m.knowledgeWALPath())
				if err != nil {
					t.Fatal(err)
				}
				return fi.Size()
			}
			var durable int64
			for i := 0; i < 10; i++ {
				before := m.Stats()
				driveInterval(t,
					func() (Advice, error) { return m.Suggest(context.Background(), "db") },
					func(o Outcome) error { _, err := m.Report("db", o); return err }, i)
				after := m.Stats()
				if after.Compactions != before.Compactions {
					t.Fatal("a compaction ran; the power-loss model does not cover it")
				}
				if after.Fsyncs-before.Fsyncs > after.GroupCommits-before.GroupCommits {
					durable = size()
				}
			}
			live, err := m.KnowledgeExport()
			if err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if st.Knowledge.Contributions == 0 {
				t.Fatal("nothing was contributed")
			}
			if durable == size() {
				t.Fatal("the cut drops nothing; the journal patch goes untested")
			}

			cp := filepath.Join(t.TempDir(), "state")
			if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(filepath.Join(cp, knowledgeWALFile), durable); err != nil {
				t.Fatal(err)
			}
			m2, err := openManager(cp, opts, arm.compactMin)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			got, err := m2.KnowledgeExport()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, live) {
				t.Fatalf("power-loss recovery diverged from the live store:\n%s\nvs\n%s", got, live)
			}
		})
	}
}

// TestKnowledgeJournalPatch: boot patches the journal's fleet records
// into fleet.knowledge-wal by sequence number, as it patches session
// logs by event index. Only records that contiguously extend the log's
// last record — or, for an empty log, the base's lifetime count — are
// appended: those at or below it are skipped, and a record after a gap
// is dropped, not applied.
func TestKnowledgeJournalPatch(t *testing.T) {
	opts := ManagerOptions{Knowledge: true, NoFsync: true}
	for _, tc := range []struct {
		name      string
		based     bool    // fold the contributions into a base, emptying the log
		journaled []int64 // sequence numbers in the journal; 4 contributions precede them
		want      int64   // contributions recovered
	}{
		{"empty log anchors at the base", true, []int64{3, 4, 5, 6, 8}, 6},
		{"log anchors at its last record", false, []int64{2, 4, 5, 7}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := NewManagerOpts(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 4; i++ {
				m.know.Contribute(fleetContribution(i))
			}
			if tc.based {
				m.know.mu.Lock()
				err := m.know.rebaseLocked()
				m.know.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			j, _, err := wal.Open(m.journalPath(), wal.Options{NoFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, seq := range tc.journaled {
				data, err := json.Marshal(knowRecord{Seq: seq, C: fleetContribution(int(seq))})
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Append(wal.EncodeJournalRecord(knowledgeJournalID, data)); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			m2, err := NewManagerOpts(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			st := m2.Stats()
			if st.Knowledge.Contributions != tc.want || int64(st.JournalPatchedRecords) != tc.want-4 {
				t.Fatalf("recovered %d contributions with %d patched, want %d and %d",
					st.Knowledge.Contributions, st.JournalPatchedRecords, tc.want, tc.want-4)
			}
			ref, err := NewManagerOpts("", opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= int(tc.want); i++ {
				ref.know.Contribute(fleetContribution(i))
			}
			got, _ := m2.KnowledgeExport()
			want, _ := ref.KnowledgeExport()
			if !bytes.Equal(got, want) {
				t.Fatal("the patched store differs from one that took the same contributions live")
			}
			if fi, err := os.Stat(m2.journalPath()); err != nil || fi.Size() != 0 {
				t.Fatalf("boot left the journal non-empty (%v)", err)
			}
		})
	}
}

// TestKnowledgeSessionRestoreWithoutStore: a knowledge-enabled session's
// snapshot restores through the public Restore — no fleet store attached
// — because replay consumes the logged advice, and the restored session
// continues bitwise-identically as long as no new query fires.
func TestKnowledgeSessionRestoreWithoutStore(t *testing.T) {
	mem, err := NewManagerOpts("", ManagerOptions{Knowledge: true})
	if err != nil {
		t.Fatal(err)
	}
	fk := mem.know
	donor, err := NewSession(Config{Space: "case5", Seed: 3, Knowledge: true, fleet: fk})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		driveInterval(t,
			func() (Advice, error) { return donor.Suggest(ctx) }, donor.Report, i)
	}
	if st := fk.stats(); st.Contributions == 0 {
		t.Fatal("donor session contributed nothing")
	}

	cfg := Config{Space: "case5", Seed: 4, Knowledge: true, fleet: fk, Rollout: &RolloutConfig{Window: 2}}
	live, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		driveInterval(t,
			func() (Advice, error) { return live.Suggest(ctx) }, live.Report, i)
	}
	if st := fk.stats(); st.WarmStarts == 0 {
		t.Fatal("second session never warm-started; the restore test would be vacuous")
	}
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap)
	if err != nil {
		t.Fatalf("restoring a knowledge session without a store: %v", err)
	}
	for i := 10; i < 15; i++ {
		a := driveInterval(t, func() (Advice, error) { return live.Suggest(ctx) }, live.Report, i)
		b := driveInterval(t, func() (Advice, error) { return restored.Suggest(ctx) }, restored.Report, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("restored session diverged at iter %d:\n%+v\nvs\n%+v", i, a, b)
		}
	}
}

// TestManagerKnowledgeConcurrent hammers one shared store from many
// concurrent sessions (run with -race). Every session both contributes
// and cold-queries.
func TestManagerKnowledgeConcurrent(t *testing.T) {
	for _, arm := range syncArms {
		t.Run(arm.name, func(t *testing.T) {
			opts := arm.opts
			opts.Knowledge = true
			m, err := openManager(t.TempDir(), opts, arm.compactMin)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			ctx := context.Background()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					id := fmt.Sprintf("sess-%d", g)
					if _, err := m.Create(id, Config{Space: "case5", Seed: int64(g)}); err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < 6; i++ {
						adv, err := m.Suggest(ctx, id)
						if err != nil {
							t.Error(err)
							return
						}
						_ = adv
						if _, err := m.Report(id, knowOutcome(i, 115+float64(i%4))); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			st := m.Stats().Knowledge
			if st.Contributions == 0 || st.Queries == 0 {
				t.Fatalf("concurrent fleet produced no knowledge traffic: %+v", st)
			}
		})
	}
}

// TestKnowledgeLogFailureRebases covers the contribution WAL's failure
// path: a contribution whose write fails folds the store into a fresh
// base snapshot instead, the store keeps serving queries, and a restart
// recovers every contribution from that base.
func TestKnowledgeLogFailureRebases(t *testing.T) {
	dir := t.TempDir()
	opts := ManagerOptions{Knowledge: true, NoFsync: true}
	m, err := NewManagerOpts(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := []float64{0.2, 0.4}
	contribution := func(i int) knowledge.Contribution {
		return knowledge.Contribution{Engine: "mysql", Space: "case5", Context: ctx,
			Config: knowledge.SafeConfig{Unit: []float64{0.1 * float64(i), 0.5}, Perf: 110 + float64(i), Tau: 100}}
	}
	m.know.Contribute(contribution(1))
	if _, err := os.Stat(m.knowledgeBasePath()); !os.IsNotExist(err) {
		t.Fatalf("a committed contribution wrote a base (stat err: %v)", err)
	}
	// Close the log's file under the store: the next append buffers, and
	// its flush fails.
	if err := m.know.log.Close(); err != nil {
		t.Fatal(err)
	}
	m.know.Contribute(contribution(2))
	if _, err := os.Stat(m.knowledgeBasePath()); err != nil {
		t.Fatalf("no fresh base after the failed write: %v", err)
	}
	want := m.Stats().Knowledge
	if want.Contributions != 2 || want.Entries == 0 {
		t.Fatalf("store after the failed write: %+v", want)
	}
	if adv := m.know.Query("mysql", "case5", ctx); adv == nil || len(adv.Configs) == 0 {
		t.Fatalf("store stopped serving queries: %+v", adv)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManagerOpts(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got := m2.Stats().Knowledge
	if got.Contributions != want.Contributions || got.Entries != want.Entries {
		t.Fatalf("restart recovered %+v, want %+v", got, want)
	}
}

// TestKnowledgeRefusedStageSyncsInPlace: with the committer closed, a
// contribution's stage is refused, so the same call syncs the tail in
// place, as a session's refused stage does: 1 sync point and no re-base.
// A crash copy of the state directory still recovers the contribution.
func TestKnowledgeRefusedStageSyncsInPlace(t *testing.T) {
	dir := t.TempDir()
	opts := ManagerOptions{Knowledge: true, NoFsync: true}
	m, err := NewManagerOpts(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.committer.Close(); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	m.know.Contribute(fleetContribution(1))
	after := m.Stats()
	if got := after.Compactions - before.Compactions; got != 0 {
		t.Fatalf("a refused stage ran %d re-bases, want 0", got)
	}
	if got := after.Fsyncs - before.Fsyncs; got != 1 {
		t.Fatalf("a refused stage cost %d sync points, want 1: the tail's own", got)
	}
	crashed := filepath.Join(t.TempDir(), "state")
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	if got := recoveredContributions(t, crashed, opts); got != 1 {
		t.Fatalf("a crash-restart recovered %d of 1 contribution", got)
	}
}

// TestKnowledgeCompactsBySessionRule: the store's tail folds into a new
// base under the session's rule, at least knowledgeCompactMin records
// and as many bytes as the base. Behind a large imported base, 256
// contributions do not compact, and the tail compacts exactly once, when
// its bytes reach the base's; behind a small base it compacts at
// exactly 256.
func TestKnowledgeCompactsBySessionRule(t *testing.T) {
	// imported returns a manager whose base is an import of n
	// contributions spread over many spaces and contexts.
	imported := func(n int) *Manager {
		t.Helper()
		src := knowledge.NewStore(knowledge.DefaultParams())
		for i := 0; i < n; i++ {
			c := fleetContribution(i)
			c.Space = fmt.Sprintf("case5-%d", i%16)
			c.Context = []float64{float64(i) / float64(n), float64(i%7) / 7}
			c.Hyper = []float64{0.1 * float64(i%5), -1, 0.5}
			src.Contribute(c)
		}
		data, err := json.Marshal(src.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewManagerOpts(t.TempDir(), ManagerOptions{Knowledge: true, NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		if _, err := m.KnowledgeImport(data); err != nil {
			t.Fatal(err)
		}
		return m
	}
	// contribute adds contributions i in [from, to) and returns how many
	// compactions they ran.
	contribute := func(m *Manager, from, to int) int64 {
		before := m.Stats().Compactions
		for i := from; i < to; i++ {
			m.know.Contribute(fleetContribution(i))
		}
		return m.Stats().Compactions - before
	}

	t.Run("large base", func(t *testing.T) {
		m := imported(2000)
		fi, err := os.Stat(m.knowledgeBasePath())
		if err != nil {
			t.Fatal(err)
		}
		base := fi.Size()
		if got := contribute(m, 0, knowledgeCompactMin); got != 0 {
			t.Fatalf("%d contributions behind a %d B base ran %d compactions, want 0", knowledgeCompactMin, base, got)
		}
		if size := m.know.log.Size(); size >= base {
			t.Fatalf("the base (%d B) does not outweigh %d records (%d B)", base, knowledgeCompactMin, size)
		}
		i, compactions := knowledgeCompactMin, int64(0)
		for ; compactions == 0 && i < 100*knowledgeCompactMin; i++ {
			size := m.know.log.Size()
			if compactions = contribute(m, i, i+1); compactions == 0 && size >= base {
				t.Fatalf("the tail reached %d B behind a %d B base without compacting", size, base)
			}
		}
		if compactions != 1 || m.know.log.Count() != 0 {
			t.Fatalf("the tail reaching the base's bytes ran %d compactions and left %d records, want 1 and 0", compactions, m.know.log.Count())
		}
		t.Logf("behind a %d B base the tail compacted at record %d", base, i)
	})
	t.Run("small base", func(t *testing.T) {
		m := imported(1)
		if got := contribute(m, 0, knowledgeCompactMin-1); got != 0 {
			t.Fatalf("%d contributions ran %d compactions, want 0", knowledgeCompactMin-1, got)
		}
		if got := contribute(m, knowledgeCompactMin-1, knowledgeCompactMin); got != 1 {
			t.Fatalf("contribution %d ran %d compactions, want 1", knowledgeCompactMin, got)
		}
	})
}

// fleetContribution is the i-th of a run of valid contributions to one
// case5 context cluster.
func fleetContribution(i int) knowledge.Contribution {
	return knowledge.Contribution{Engine: "mysql", Space: "case5", Context: []float64{0.2, 0.4},
		Config: knowledge.SafeConfig{Unit: []float64{0.1 * float64(i), 0.5}, Perf: 110 + float64(i), Tau: 100}}
}

// recoveredContributions opens a manager on dir and returns how many
// contributions its fleet store recovered.
func recoveredContributions(t *testing.T, dir string, opts ManagerOptions) int64 {
	t.Helper()
	m, err := NewManagerOpts(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := m.Stats().Knowledge
	return st.Contributions
}

// droppedTailArms run the dropped-tail tests with and without real
// fsyncs. In the real-fsync arm the committer's final sync opens each log
// the journal covers by path, so a dropped handle cannot fail it (NoFsync
// never touches the file).
var droppedTailArms = []struct {
	name string
	opts ManagerOptions
}{
	{"group-commit", ManagerOptions{Knowledge: true, NoFsync: true}},
	{"group-commit, fsync", ManagerOptions{Knowledge: true}},
}

// closeLeavesJournalEmpty closes m and fails unless Close succeeded and
// left nothing in the shared journal for the next boot to recover.
func closeLeavesJournalEmpty(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(m.journalPath()); err == nil && fi.Size() != 0 {
		t.Fatalf("Close left %d bytes in the journal", fi.Size())
	}
}

// TestKnowledgeDroppedTailReopens: the store's tail is dropped by a
// failed write whose handle can no longer reset either. The same call
// re-bases through a reopened tail, so every later contribution is
// durable again: a crash-restart and a clean Close both recover all of
// them.
func TestKnowledgeDroppedTailReopens(t *testing.T) {
	for _, arm := range droppedTailArms {
		t.Run(arm.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := NewManagerOpts(dir, arm.opts)
			if err != nil {
				t.Fatal(err)
			}
			m.know.Contribute(fleetContribution(1))
			if err := m.know.log.Close(); err != nil {
				t.Fatal(err)
			}
			m.know.Contribute(fleetContribution(2))
			for i := 3; i <= 4; i++ {
				m.know.Contribute(fleetContribution(i))
			}
			crashed := filepath.Join(t.TempDir(), "state")
			if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			if got := recoveredContributions(t, crashed, arm.opts); got != 4 {
				t.Fatalf("a crash-restart recovered %d of 4 contributions", got)
			}
			closeLeavesJournalEmpty(t, m)
			if got := recoveredContributions(t, dir, arm.opts); got != 4 {
				t.Fatalf("a restart after Close recovered %d of 4 contributions", got)
			}
		})
	}
}

// TestKnowledgeDroppedTailRebasedLater: while the base cannot be
// written (a non-empty directory stands at its path), a failed write
// leaves the tail dropped and every contribution's re-base fails. Once
// the path is free, the next contribution re-bases with a live tail, and
// Close re-bases a tail that is still dropped.
func TestKnowledgeDroppedTailRebasedLater(t *testing.T) {
	for _, arm := range droppedTailArms {
		t.Run(arm.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := NewManagerOpts(dir, arm.opts)
			if err != nil {
				t.Fatal(err)
			}
			// fail closes the tail's file under the store, so its next write
			// fails, and blocks the base's path; unblock puts the base back.
			base := m.knowledgeBasePath()
			var saved []byte
			fail := func() {
				t.Helper()
				m.know.log.Close()
				saved, _ = os.ReadFile(base) // nil before the first base
				if err := os.RemoveAll(base); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Join(base, "block"), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			unblock := func() {
				t.Helper()
				if err := os.RemoveAll(base); err != nil {
					t.Fatal(err)
				}
				if saved != nil {
					if err := os.WriteFile(base, saved, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			m.know.Contribute(fleetContribution(1))
			fail()
			m.know.Contribute(fleetContribution(2))
			m.know.Contribute(fleetContribution(3))
			if m.know.log != nil {
				t.Fatal("the tail is live although no base could be written")
			}
			unblock()
			m.know.Contribute(fleetContribution(4))
			if m.know.log == nil {
				t.Fatal("the next contribution left the tail dropped")
			}
			m.know.Contribute(fleetContribution(5))
			fail()
			m.know.Contribute(fleetContribution(6))
			unblock()
			closeLeavesJournalEmpty(t, m)
			if got := recoveredContributions(t, dir, arm.opts); got != 6 {
				t.Fatalf("a restart after Close recovered %d of 6 contributions", got)
			}
		})
	}
}

// TestKnowledgeExportImport round-trips the store across two managers.
func TestKnowledgeExportImport(t *testing.T) {
	src, err := NewManagerOpts(t.TempDir(), ManagerOptions{Knowledge: true, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.Create("a", Config{Space: "case5", Seed: 5}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		driveInterval(t,
			func() (Advice, error) { return src.Suggest(ctx, "a") },
			func(o Outcome) error { _, err := src.Report("a", o); return err }, i)
	}
	data, err := src.KnowledgeExport()
	if err != nil {
		t.Fatal(err)
	}

	dst, err := NewManagerOpts(t.TempDir(), ManagerOptions{Knowledge: true, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	n, err := dst.KnowledgeImport(data)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("import merged nothing")
	}
	got, err := dst.KnowledgeExport()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("import of an export is not identity:\n%s\nvs\n%s", got, data)
	}
	if _, err := dst.KnowledgeImport([]byte("{bad json")); err == nil {
		t.Fatal("corrupt import should fail")
	}

	plain, err := NewManagerOpts("", ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.KnowledgeExport(); err == nil {
		t.Fatal("export on a knowledge-less manager should fail")
	}
}

// TestFailedBootClosesKnowledgeLog: a boot that fails after the fleet
// store opened its log (here on a session base that is not JSON) closes
// that log, so failed boots leak no descriptor.
func TestFailedBootClosesKnowledgeLog(t *testing.T) {
	fds := func() int {
		t.Helper()
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open descriptors: %v", err)
		}
		return len(entries)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.base.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := fds()
	for i := 0; i < 5; i++ {
		if _, err := NewManagerOpts(dir, ManagerOptions{NoFsync: true, Knowledge: true}); err == nil {
			t.Fatal("boot accepted a session base that is not JSON")
		}
	}
	if leaked := fds() - before; leaked > 0 {
		t.Fatalf("five failed boots left %d descriptors open", leaked)
	}
}
