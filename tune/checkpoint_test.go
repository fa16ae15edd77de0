package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/wal"
)

// TestHydrateReplaysOnlyTheTail: however old a session is, hydrating it
// replays exactly the WAL records written since its base — counted from
// disk before the touch — and the byte rule keeps that tail smaller than
// the base, or shorter than CompactMin events, so the replay is bounded
// by the state's size, not by the session's age.
func TestHydrateReplaysOnlyTheTail(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManagerOpts(dir, ManagerOptions{MaxResident: 1, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Re-clustering a repository of identical contexts is quadratic;
	// checking rarely keeps the 1600 intervals cheap without changing
	// what a checkpoint holds.
	opts := DefaultTunerOptions()
	opts.ReclusterEvery = 400
	for _, id := range []string{"db", "other"} {
		if _, err := m.Create(id, Config{Space: "case5", Seed: 31, Options: &opts}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	age := 0
	for _, target := range []int{50, 400, 1600} {
		for ; age < target; age++ {
			if _, err := m.Suggest(ctx, "db"); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Report("db", goldenOutcome(age)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Suggest(ctx, "other"); err != nil { // evicts db
			t.Fatal(err)
		}
		h, err := peekSnapshotHeader(m.basePath("db"))
		if err != nil {
			t.Fatal(err)
		}
		lg, recs, err := wal.Open(m.walPath("db"), wal.Options{NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		tailBytes := lg.Size()
		lg.Close()
		tail := 0
		for _, data := range recs {
			var rec walRecord
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Idx >= h.Next {
				tail++
			}
		}
		base, err := os.Stat(m.basePath("db"))
		if err != nil {
			t.Fatal(err)
		}
		if tailBytes >= base.Size() && len(recs) >= DefaultCompactMin {
			t.Fatalf("age %d: a %d-byte, %d-record tail on a %d-byte base outlived the byte rule", age, tailBytes, len(recs), base.Size())
		}
		before := m.Stats().ReplayedEvents
		if _, err := m.Get("db"); err != nil {
			t.Fatal(err)
		}
		if got := m.Stats().ReplayedEvents - before; got != int64(tail) {
			t.Fatalf("age %d: hydrate replayed %d events, the WAL tail holds %d", age, got, tail)
		}
		if tail >= 2*age {
			t.Fatalf("age %d: replayed %d events, the whole history", age, tail)
		}
	}
}

// TestCheckpointFailureLosesNothing: events a failed persist leaves
// queued stay in memory until a persist succeeds, so a Snapshot taken in
// between — which never drops them — equals an uninterrupted session's
// snapshot byte for byte and restores to it; the next successful
// operation persists them, and a restarted manager resumes
// bit-identically.
func TestCheckpointFailureLosesNothing(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManagerOpts(dir, ManagerOptions{NoFsync: true, CompactMin: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Space: "case5", Seed: 23}
	if _, err := m.Create("db", cfg); err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		managedStep(t, m, "db", ref, i)
	}
	m.checkpointFailure = func() error { return errors.New("injected checkpoint fault") }
	if _, err := m.Suggest(context.Background(), "db"); !errors.Is(err, ErrDurability) {
		t.Fatalf("Suggest under a persistent fault: err = %v, want ErrDurability", err)
	}
	if _, err := ref.Suggest(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Report("db", goldenOutcome(6)); !errors.Is(err, ErrDurability) {
		t.Fatalf("Report under a persistent fault: err = %v, want ErrDurability", err)
	}
	if err := ref.Report(goldenOutcome(6)); err != nil {
		t.Fatal(err)
	}
	s, err := m.Get("db")
	if err != nil {
		t.Fatal(err)
	}
	queued := s.EventCount()
	if queued == 0 {
		t.Fatal("a failed persist dropped its events")
	}
	data, err := m.Snapshot("db")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("snapshot after a failed persist differs from the uninterrupted session's")
	}
	if s.EventCount() != queued {
		t.Fatalf("Snapshot dropped events: %d held, %d before", s.EventCount(), queued)
	}
	restored, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := restored.Snapshot(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("restored snapshot differs (err %v)", err)
	}

	m.checkpointFailure = nil
	managedStep(t, m, "db", ref, 7)
	if n := s.EventCount(); n != 0 {
		t.Fatalf("%d persisted events still held", n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManagerOpts(dir, ManagerOptions{NoFsync: true, CompactMin: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	managedStep(t, m2, "db", ref, 8)
}

// damagedGoldens are the golden snapshot with one part of its state
// block broken each; every one must be refused.
func damagedGoldens(tb testing.TB) map[string][]byte {
	tb.Helper()
	golden := goldenAtVersion(tb, SnapshotVersion)
	damage := func(f func(st *sessionState)) []byte {
		doc, err := parseSnapshot(golden)
		if err != nil {
			tb.Fatal(err)
		}
		f(doc.State)
		data, err := json.Marshal(doc)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	return map[string][]byte{
		"truncated factor": damage(func(st *sessionState) {
			g := &st.Models[0].GP
			g.Chol = g.Chol[:len(g.Chol)-1]
		}),
		"short unit":      damage(func(st *sessionState) { st.Repo.Obs[1].Unit = st.Repo.Obs[1].Unit[1:] }),
		"short model row": damage(func(st *sessionState) { st.Models[0].Units[0] = st.Models[0].Units[0][1:] }),
		"NaN target":      bytes.Replace(golden, []byte(`"perfs": [`+"\n"), []byte(`"perfs": [`+"\n"+`NaN, `), 1),
		"negative draws":  damage(func(st *sessionState) { st.Models[0].Adapter.Draws = -1 }),
		"unknown rule":    damage(func(st *sessionState) { st.PendingRule = "no-such-rule" }),
		"region kind":     damage(func(st *sessionState) { st.Models[0].Adapter.Region.Kind = 7 }),
		"vocabulary":      damage(func(st *sessionState) { st.Vocabulary[0], st.Vocabulary[1] = st.Vocabulary[1], st.Vocabulary[0] }),
	}
}

// TestRestoreRejectsDamagedState: a damaged state block is an error,
// never a panic.
func TestRestoreRejectsDamagedState(t *testing.T) {
	for name, data := range damagedGoldens(t) {
		if _, err := Restore(data); err == nil {
			t.Errorf("%s: restored", name)
		}
	}
	// A state next to an event log is ambiguous.
	doc, err := parseSnapshot(goldenAtVersion(t, SnapshotVersion))
	if err != nil {
		t.Fatal(err)
	}
	doc.Events = []event{{Kind: eventSuggest}}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(data); err == nil {
		t.Error("restored a snapshot carrying both a state and events")
	}
}
