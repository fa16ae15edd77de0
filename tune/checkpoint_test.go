package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// TestHydrateReplaysOnlyTheTail: however old a session is, hydrating it
// replays exactly the WAL records written since its base — counted from
// disk before the touch — and the byte rule keeps that tail smaller than
// the base, or shorter than compactMin events, so the replay is bounded
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

// TestCheckpointFailureLosesNothing: a failed persist drops the log but
// not the session, so a Snapshot taken in between equals an
// uninterrupted session's byte for byte and restores to it; the first
// successful operation re-bases the session's exact state instead of
// re-appending, and a restarted manager resumes bit-identically.
func TestCheckpointFailureLosesNothing(t *testing.T) {
	dir := t.TempDir()
	m, err := openManager(dir, ManagerOptions{NoFsync: true}, 4)
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
	restored, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := restored.Snapshot(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("restored snapshot differs (err %v)", err)
	}

	m.checkpointFailure = nil
	before := m.Stats().Compactions
	managedStep(t, m, "db", ref, 7)
	if got := m.Stats().Compactions; got != before+1 {
		t.Fatalf("the first successful interval after the fault wrote %d bases, want 1", got-before)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := openManager(dir, ManagerOptions{NoFsync: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	managedStep(t, m2, "db", ref, 8)
	sameSnapshotSession(t, m2, ref)
}

// TestCheckpointFailureSurvivesClose: a report acked with ErrDurability
// advanced the session in memory, and a clean Close re-bases it, so the
// next boot resumes after that report and continues bit-identically with
// a never-restarted session. In the real-fsync arm the committer's final
// sync opens the logs the journal covers by path, so the dropped log's
// closed handle cannot fail it.
func TestCheckpointFailureSurvivesClose(t *testing.T) {
	for _, arm := range []struct {
		name string
		opts ManagerOptions
	}{
		{"group-commit", ManagerOptions{NoFsync: true}},
		{"group-commit, fsync", ManagerOptions{}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := NewManagerOpts(dir, arm.opts)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Space: "case5", Seed: 29}
			if _, err := m.Create("db", cfg); err != nil {
				t.Fatal(err)
			}
			ref, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const k = 4
			for i := 0; i < k; i++ {
				managedStep(t, m, "db", ref, i)
			}
			if _, err := m.Suggest(context.Background(), "db"); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Suggest(context.Background()); err != nil {
				t.Fatal(err)
			}
			m.checkpointFailure = func() error { return errors.New("injected checkpoint fault") }
			if iter, err := m.Report("db", goldenOutcome(k)); !errors.Is(err, ErrDurability) || iter != k+1 {
				t.Fatalf("Report under a persistent fault: iter %d, err = %v, want %d and ErrDurability", iter, err, k+1)
			}
			if err := ref.Report(goldenOutcome(k)); err != nil {
				t.Fatal(err)
			}
			m.checkpointFailure = nil
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			m2, err := NewManagerOpts(dir, arm.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			s, err := m2.Get("db")
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Iter(); got != k+1 {
				t.Fatalf("rebooted at iter %d, want %d: the report acked before Close was lost", got, k+1)
			}
			for i := k + 1; i < k+4; i++ {
				managedStep(t, m2, "db", ref, i)
			}
			sameSnapshotSession(t, m2, ref)
		})
	}
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
	// Every snapshot carries a state: a null one is an error.
	doc, err := parseSnapshot(goldenAtVersion(t, SnapshotVersion))
	if err != nil {
		t.Fatal(err)
	}
	doc.State = nil
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(data); err == nil {
		t.Error("restored a snapshot whose state is null")
	}
}

// bgManagedStep drives one interval of session id through m with a
// winning staged measurement whenever the advice stages a candidate, so
// a bluegreen session keeps promoting and switching over.
func bgManagedStep(t *testing.T, m *Manager, id string, i int) Advice {
	t.Helper()
	adv, err := m.Suggest(context.Background(), id)
	if err != nil {
		t.Fatalf("iter %d: Suggest: %v", i, err)
	}
	o := knowOutcome(i, 115+float64(i%4))
	if _, ok := adv.Targets[RoleStaged]; ok {
		o.Measurements = map[Role]ReplicaPerf{RoleStaged: {Performance: 125 + float64(i%3)}}
	}
	if _, err := m.Report(id, o); err != nil {
		t.Fatalf("iter %d: Report: %v", i, err)
	}
	return adv
}

// TestHydrateAtEveryRecordBoundary: a batch of records may reach the
// log in pieces — a power loss before its sync, or a kill -9 after the
// write buffer flushed part of it — so a recovery may see the log cut
// at any record boundary. A bluegreen session that warm-starts from the
// fleet store and promotes is cut at every boundary of its log, and each
// cut copy must hydrate to exactly the state the live session held
// after that many records, then continue bit-identically with a control
// hydrated from that live state with no replay at all.
func TestHydrateAtEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	opts := ManagerOptions{NoFsync: true, Knowledge: true}
	m, err := openManager(dir, opts, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("donor", Config{Space: "case5", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		bgManagedStep(t, m, "donor", i)
	}
	cfg := Config{Space: "case5", Seed: 4, Rollout: &RolloutConfig{Mode: RolloutModeBlueGreen, Window: 2}}
	if _, err := m.Create("db", cfg); err != nil {
		t.Fatal(err)
	}
	live := liveStates{}
	live.capture(t, m)
	const intervals = 24
	for i := 0; i < intervals; i++ {
		if _, err := m.Suggest(context.Background(), "db"); err != nil {
			t.Fatal(err)
		}
		live.capture(t, m)
		o := knowOutcome(i, 115+float64(i%4))
		o.Measurements = map[Role]ReplicaPerf{RoleStaged: {Performance: 125 + float64(i%3)}}
		if _, err := m.Report("db", o); err != nil {
			t.Fatal(err)
		}
		live.capture(t, m)
	}
	if st := m.Stats().Knowledge; st.WarmStarts == 0 {
		t.Fatal("the session never warm-started from the fleet store")
	}
	if st, err := m.Rollout("db"); err != nil || st.Promotions == 0 {
		t.Fatalf("the session never promoted: %+v, %v", st, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	live.hydrateEveryCut(t, dir, opts, 1<<20, intervals)
}

// TestHydrateAtEveryRecordBoundaryExploring is the record-boundary check
// over every branch of an assessed suggest: a direct-apply case5 session
// with no assessment margin explores, warm-started from a fleet store a
// donor filled, until its log holds a UCB pick, an ε-boundary pick, an
// empty-safe fallback, a white-box veto and a pick of a fleet transfer.
// Replay installs each logged decision, and every cut must still
// hydrate to the live state byte for byte.
func TestHydrateAtEveryRecordBoundaryExploring(t *testing.T) {
	dir := t.TempDir()
	opts := ManagerOptions{NoFsync: true, Knowledge: true}
	m, err := openManager(dir, opts, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tunables := DefaultTunerOptions()
	tunables.SafetyMargin = 0
	if _, err := m.Create("donor", Config{Space: "case5", Seed: 1, Options: &tunables}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		bgManagedStep(t, m, "donor", i)
	}
	if _, err := m.Create("db", Config{Space: "case5", Seed: 4, Options: &tunables}); err != nil {
		t.Fatal(err)
	}
	live := liveStates{}
	live.capture(t, m)
	const intervals = 40
	var advice []Advice
	for i := 0; i < intervals; i++ {
		adv, err := m.Suggest(context.Background(), "db")
		if err != nil {
			t.Fatal(err)
		}
		advice = append(advice, adv)
		live.capture(t, m)
		// A stretch below τ, then one at τ, drains the safe set.
		perf := 115 + float64(i%4)
		switch {
		case i >= 30:
			perf = 100
		case i >= 20:
			perf = 90 + float64(i%4)
		}
		if _, err := m.Report("db", knowOutcome(i, perf)); err != nil {
			t.Fatal(err)
		}
		live.capture(t, m)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := wal.Open(filepath.Join(dir, "db.wal"), wal.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for k, data := range recs {
		var rec walRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		d := rec.Event.Decision
		if d == nil {
			continue
		}
		adv := advice[k/2]
		seen["UCB pick"] = seen["UCB pick"] || d.Pick >= 0 && !adv.Boundary
		seen["ε-boundary pick"] = seen["ε-boundary pick"] || d.Pick >= 0 && adv.Boundary
		seen["empty-safe fallback"] = seen["empty-safe fallback"] || d.Pick < 0
		seen["white-box veto"] = seen["white-box veto"] || d.Vetoes > 0
		seen["transfer pick"] = seen["transfer pick"] || d.Pick >= tunables.Candidates
	}
	for _, branch := range []string{"UCB pick", "ε-boundary pick", "empty-safe fallback", "white-box veto", "transfer pick"} {
		if !seen[branch] {
			t.Errorf("the log holds no %s", branch)
		}
	}
	live.hydrateEveryCut(t, dir, opts, 1<<20, intervals)
}

// liveStates maps the number of records session db's log holds after
// each op to the session's snapshot then.
type liveStates map[int][]byte

// capture records db's state now.
func (l liveStates) capture(t *testing.T, m *Manager) {
	t.Helper()
	snap, err := m.Snapshot("db")
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	l[h.Next] = snap
}

// hydrateEveryCut cuts db's log in the closed state dir at every record
// boundary. Each cut copy must hydrate to the state l holds for that
// many records, then continue from interval from bit-identically with a
// control whose base is that state and whose tail is empty.
func (l liveStates) hydrateEveryCut(t *testing.T, dir string, opts ManagerOptions, compactMin, from int) {
	t.Helper()
	_, recs, err := wal.Open(filepath.Join(dir, "db.wal"), wal.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	for k := 0; k <= len(recs); k++ {
		if k > 0 {
			off += 8 + int64(len(recs[k-1])) // the frame header, then the payload
		}
		cut := crashCopy(t, dir, "db", off, opts, compactMin)
		got, err := cut.Snapshot("db")
		if err != nil {
			t.Fatalf("log cut after %d of %d records: %v", k, len(recs), err)
		}
		want, ok := l[k]
		if !ok {
			t.Fatalf("log cut after %d of %d records hydrated, but the live session never held that many", k, len(recs))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("log cut after %d of %d records hydrated to a state the live session never held", k, len(recs))
		}
		control := crashCopy(t, dir, "db", 0, opts, compactMin)
		if err := os.WriteFile(control.basePath("db"), want, 0o644); err != nil {
			t.Fatal(err)
		}
		for i := from; i < from+3; i++ {
			a, b := bgManagedStep(t, cut, "db", i), bgManagedStep(t, control, "db", i)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("log cut after %d records: advice diverged from the control at iter %d", k, i)
			}
		}
		sameSnapshot(t, control, cut, "db")
		cut.Close()
		control.Close()
	}
}

// TestReplayRefusesMisfitDecision: a replayed suggest installs its
// logged decision only where it fits the replayed state. A decision
// whose pick, recenter (an assessment's or a probe's), importance axes
// or rules the state cannot hold, axes where no line switch consulted
// the oracle, and a decision on a suggest that decides nothing, each
// fail the restore, naming the record.
func TestReplayRefusesMisfitDecision(t *testing.T) {
	opts := DefaultTunerOptions()
	opts.SafetyMargin = 0
	s, err := NewSession(Config{Space: "case5", Seed: 4, Options: &opts})
	if err != nil {
		t.Fatal(err)
	}
	type logged struct {
		base []byte
		rec  walRecord
	}
	var cold, assessed, switched, probe *logged
	for i := 0; assessed == nil || switched == nil || probe == nil; i++ {
		if i == 40 {
			t.Fatal("no suggest reached an assessment, an importance-guided line switch and a recentering probe in 40 intervals")
		}
		base, err := s.snapshot(false)
		if err != nil {
			t.Fatal(err)
		}
		adv, rec, err := s.suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		d := rec.Event.Decision
		switch {
		case i == 0:
			cold = &logged{base, rec}
		case adv.RegionKind == "probe" && d != nil && d.Recenter != nil:
			probe = &logged{base, rec}
		case d != nil && len(d.Axes) > 0 && d.Axes[0] >= 0:
			switched = &logged{base, rec}
		case d != nil && assessed == nil:
			assessed = &logged{base, rec}
		}
		s.report(derivationOutcome(i))
	}
	replay := func(l *logged, mutate func(*event)) error {
		rec := l.rec
		if d := rec.Event.Decision; d != nil {
			dc := *d
			rec.Event.Decision = &dc
		}
		mutate(&rec.Event)
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = restore(l.base, [][]byte{data}, nil)
		return err
	}
	for _, l := range []*logged{assessed, switched, probe} {
		if err := replay(l, func(*event) {}); err != nil {
			t.Fatalf("the logged decision does not replay: %v", err)
		}
	}
	recenter := 1 << 20
	for name, c := range map[string]struct {
		l      *logged
		mutate func(*event)
	}{
		"a pick past the candidates":        {assessed, func(e *event) { e.Decision.Pick = 1 << 20 }},
		"a pick below the fallback":         {assessed, func(e *event) { e.Decision.Pick = -2 }},
		"a recenter past the model":         {assessed, func(e *event) { e.Decision.Recenter = &recenter }},
		"an unknown conflict rule":          {assessed, func(e *event) { e.Decision.Conflicts = []string{"no-such-rule"} }},
		"an unknown bypassed rule":          {assessed, func(e *event) { e.Decision.Pick, e.Decision.Ignored = 0, "no-such-rule" }},
		"axes no line switch asked for":     {assessed, func(e *event) { e.Decision.Axes = []int{0} }},
		"an axis past the space":            {switched, func(e *event) { e.Decision.Axes = []int{0, 5} }},
		"six axes":                          {switched, func(e *event) { e.Decision.Axes = []int{0, 1, 2, 3, 4, 0} }},
		"a probe's recenter past the model": {probe, func(e *event) { e.Decision.Recenter = &recenter }},
		"a decision without assessment":     {cold, func(e *event) { e.Decision = &core.Decision{Pick: -1} }},
	} {
		var te *tailError
		if err := replay(c.l, c.mutate); !errors.As(err, &te) || te.i != 0 {
			t.Errorf("%s: restore returned %v, want a refusal of record 0", name, err)
		}
	}
}

// TestHydrateUndecidedTail: tails in the forms earlier builds wrote
// still hydrate to the live state byte for byte, computing live what
// their records do not log. The tail crosses importance-guided line
// switches and recentering probes. Written before suggests logged their
// decisions — the same records without the "d" field — each assessment
// and each probe's recenter runs live. Written by the build before
// decisions logged the importance oracle's answer and probes their
// recenter — assessed decisions without "a", probes without "d" — each
// probe's recenter and each switch's forest fit runs live, and no
// assessment.
func TestHydrateUndecidedTail(t *testing.T) {
	opts := DefaultTunerOptions()
	opts.SafetyMargin = 0
	s, err := NewSession(Config{Space: "case5", Seed: 4, Options: &opts})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.snapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	var undecided, previous [][]byte
	assessed, probes, switches := 0, 0, 0
	for i := 0; i < 40; i++ {
		adv, rec, err := s.suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		probe := adv.RegionKind == "probe"
		if d := rec.Event.Decision; d != nil && probe {
			probes++
		} else if d != nil {
			assessed++
			if d.Axes != nil {
				switches++
			}
		}
		undecided = append(undecided, rewritten(t, rec, func(ev, _ map[string]json.RawMessage) { delete(ev, "d") }))
		previous = append(previous, rewritten(t, rec, func(ev, d map[string]json.RawMessage) {
			if probe {
				delete(ev, "d")
			}
			delete(d, "a")
		}))
		rec = s.report(derivationOutcome(i))
		undecided = append(undecided, rewritten(t, rec, nil))
		previous = append(previous, rewritten(t, rec, nil))
	}
	if lt := s.tuner.T.Timings(); assessed == 0 || probes == 0 || switches == 0 || lt.ImportanceFits == 0 {
		t.Fatalf("the tail holds %d assessments, %d probes and %d importance-guided switches (%d forest fits), want ≥ 1 of each",
			assessed, probes, switches, lt.ImportanceFits)
	}
	for _, c := range []struct {
		name                        string
		recs                        [][]byte
		assessments, fits, recenter int
	}{
		{"undecided", undecided, assessed, s.tuner.T.Timings().ImportanceFits, assessed + probes},
		{"previous-build", previous, 0, s.tuner.T.Timings().ImportanceFits, probes},
	} {
		h, _, err := restore(base, c.recs, nil)
		if err != nil {
			t.Fatalf("the %s tail does not replay: %v", c.name, err)
		}
		if ht := h.tuner.T.Timings(); ht.Assessments != c.assessments || ht.ImportanceFits != c.fits || ht.Recenters != c.recenter {
			t.Fatalf("the %s tail's hydrate computed %d assessments, %d forest fits and %d recenter searches, want %d, %d and %d",
				c.name, ht.Assessments, ht.ImportanceFits, ht.Recenters, c.assessments, c.fits, c.recenter)
		}
		sameState(t, h, s)
	}
}

// rewritten returns rec's WAL bytes after edit has changed the JSON
// objects of its event and of the event's decision (empty without one).
func rewritten(t *testing.T, rec walRecord, edit func(ev, d map[string]json.RawMessage)) []byte {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil || edit == nil {
		return data
	}
	var raw, ev map[string]json.RawMessage
	d := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw["event"], &ev); err != nil {
		t.Fatal(err)
	}
	if ev["d"] != nil {
		if err := json.Unmarshal(ev["d"], &d); err != nil {
			t.Fatal(err)
		}
	}
	edit(ev, d)
	if _, ok := ev["d"]; ok {
		if ev["d"], err = json.Marshal(d); err != nil {
			t.Fatal(err)
		}
	}
	if raw["event"], err = json.Marshal(ev); err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	return data
}

// contextTail drives a case5 session through 30 intervals of
// shiftOutcome with optimizer stats, and returns the base taken before
// the first, the tail, and the live session. With unfeaturized set, each
// report record is rewritten to the form written before reports logged
// their context: the whole outcome, without ctx or tok.
func contextTail(t *testing.T, unfeaturized bool) (base []byte, recs [][]byte, live *Session) {
	t.Helper()
	s, err := NewSession(Config{Space: "case5", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if base, err = s.snapshot(false); err != nil {
		t.Fatal(err)
	}
	add := func(rec walRecord) {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, data)
	}
	for i := 0; i < 30; i++ {
		_, rec, err := s.suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		add(rec)
		o := shiftOutcome(i)
		o.Stats = OptimizerStats{RowsExamined: 100 + 10*float64(i), FilterPct: 20, IndexUsedFrac: 0.5}
		rec = s.report(o)
		if unfeaturized {
			rec.Event.Outcome, rec.Event.Ctx, rec.Event.Tok = &o, nil, nil
		}
		add(rec)
	}
	return base, recs, s
}

// sameState fails unless a hydrated session h and the live session
// serialize to the same bytes.
func sameState(t *testing.T, h, live *Session) {
	t.Helper()
	got, err := h.snapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := live.snapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the tail hydrated to a state the live session never held")
	}
}

// TestHydrateInstallsLoggedContexts: report records log the context
// their featurization derived and the tokens it admitted, and no
// statement. Their tail hydrates without featurizing (no template-cache
// traffic), admits the tokens the analytic reports added after the base
// in their order, and reaches the live state byte for byte. A logged
// context of the wrong length, or a logged token the vocabulary already
// holds, fails the restore naming the record.
func TestHydrateInstallsLoggedContexts(t *testing.T) {
	base, recs, live := contextTail(t, false)
	b, err := Restore(base)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.feat.Admitted(), live.feat.Admitted(); got >= want {
		t.Fatalf("the reports admitted no tokens after the base (%d, then %d)", got, want)
	}
	for i, data := range recs {
		if bytes.Contains(data, []byte("SELECT")) || bytes.Contains(data, []byte("rows_examined")) {
			t.Fatalf("record %d logs the statements or the optimizer stats: %s", i, data)
		}
	}
	h, _, err := restore(base, recs, nil)
	if err != nil {
		t.Fatalf("the tail does not replay: %v", err)
	}
	if st := h.feat.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("hydrate featurized: %d template-cache hits and %d misses, want none", st.Hits, st.Misses)
	}
	if !slices.Equal(h.feat.Vocabulary(), live.feat.Vocabulary()) {
		t.Fatal("the hydrated vocabulary differs from the live one")
	}
	sameState(t, h, live)

	for name, mutate := range map[string]func(*event){
		"a short context":           func(e *event) { e.Ctx = e.Ctx[1:] },
		"an already admitted token": func(e *event) { e.Tok = append(e.Tok, "select") },
	} {
		var rec walRecord
		if err := json.Unmarshal(recs[1], &rec); err != nil {
			t.Fatal(err)
		}
		mutate(&rec.Event)
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([][]byte{recs[0], data}, recs[2:]...)
		var te *tailError
		if _, _, err := restore(base, bad, nil); !errors.As(err, &te) || te.i != 1 {
			t.Errorf("%s: restore returned %v, want a refusal of record 1", name, err)
		}
	}
}

// TestHydrateUnfeaturizedTail: a tail written before reports logged
// their context — each report's whole outcome, without ctx or tok —
// still hydrates to the live state byte for byte, featurizing each
// report live.
func TestHydrateUnfeaturizedTail(t *testing.T) {
	base, recs, live := contextTail(t, true)
	h, _, err := restore(base, recs, nil)
	if err != nil {
		t.Fatalf("the unfeaturized tail does not replay: %v", err)
	}
	if st := h.feat.Stats(); st.Hits+st.Misses != 2*30 {
		t.Fatalf("hydrate featurized %d statements, want 2 per report (60)", st.Hits+st.Misses)
	}
	sameState(t, h, live)
}

// shiftOutcome alternates a session between two workloads in blocks of
// five intervals, an OLTP mix and an analytic one, whose contexts a
// re-cluster check separates.
func shiftOutcome(i int) Outcome {
	o := knowOutcome(i, 115+float64(i%4))
	o.Workload.Skew = 0.1 * float64(i%3)
	if i/5%2 == 1 {
		o.Workload.Statements = []Statement{
			{SQL: "SELECT o_carrier, SUM(ol_amount) FROM orders JOIN order_line ON o_id = ol_o_id GROUP BY o_carrier ORDER BY 2", Weight: 3},
			{SQL: "SELECT COUNT(*) FROM stock WHERE s_quantity < 10", Weight: 1},
		}
		o.Workload.ReadFrac, o.Workload.ScanFrac, o.Workload.JoinFrac = 1, 0.8, 0.6
	}
	return o
}

// TestHydrateInstallsLoggedDerivations is restart equivalence across the
// costly derivations: the replayed tail spans refit points with logged
// hyperparameters, kept re-cluster checks, one adopted check, assessed
// suggests with logged decisions, an importance-guided hypercube → line
// switch with its logged axes and probes with their logged recenters.
// The hydrate must run no hyperparameter search, no kept check, no
// assessment, no forest fit and no recenter search — it installs the
// logged refits, decisions, axes and recenters and skips the kept
// checks — re-run exactly the adopted one, hydrate to the live state
// byte for byte and continue bit-identically with a session that never
// restarted. The repository (cap 48) first evicts during the
// continuation, so its checks both extend the nearest-distance index the
// skipped checks left short and rebuild it.
func TestHydrateInstallsLoggedDerivations(t *testing.T) {
	dir := t.TempDir()
	mopts := ManagerOptions{NoFsync: true}
	m, err := openManager(dir, mopts, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultTunerOptions()
	opts.MinRecluster, opts.ReclusterEvery, opts.RepoCap, opts.HyperoptEvery = 10, 5, 48, 5
	cfg := Config{Space: "case5", Seed: 7, Options: &opts}
	if _, err := m.Create("db", cfg); err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	step := func(m *Manager, i int) {
		t.Helper()
		adv, err := m.Suggest(context.Background(), "db")
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, adv.RegionKind)
		want, err := ref.Suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(adv, want) {
			t.Fatalf("iter %d: advice diverged from the never-restarted session", i)
		}
		if _, err := m.Report("db", derivationOutcome(i)); err != nil {
			t.Fatal(err)
		}
		if err := ref.Report(derivationOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	const intervals = 40
	for i := 0; i < intervals; i++ {
		step(m, i)
	}
	if lt := ref.tuner.T.Timings(); lt.Refits == 0 || lt.KeptChecks == 0 || lt.AdoptedChecks != 1 || lt.Assessments == 0 || lt.ImportanceFits == 0 {
		t.Fatalf("live session ran %d refits, %d kept and %d adopted checks, %d assessments and %d forest fits, want ≥ 1, ≥ 1, 1, ≥ 1 and ≥ 1",
			lt.Refits, lt.KeptChecks, lt.AdoptedChecks, lt.Assessments, lt.ImportanceFits)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := wal.Open(filepath.Join(dir, "db.wal"), wal.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	fits, adopted, decisions, axes, recentered := 0, 0, 0, 0, 0
	for k, data := range recs {
		var rec walRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		if d := rec.Event.Decision; d != nil && len(d.Axes) > 0 && d.Axes[0] >= 0 {
			axes++
		}
		if d := rec.Event.Decision; d != nil && kinds[k/2] == "probe" && d.Recenter != nil {
			recentered++
		}
		if rec.Event.Fit != nil {
			fits++
		}
		if rec.Event.Adopted {
			adopted++
		}
		if rec.Event.Decision != nil && kinds[k/2] != "probe" {
			decisions++
		}
	}
	if lt := ref.tuner.T.Timings(); len(recs) != 2*intervals || fits == 0 || adopted != 1 || decisions != lt.Assessments || axes == 0 || recentered == 0 {
		t.Fatalf("the tail holds %d records, %d logged refits, %d adopted checks, %d decisions, %d importance-guided switches and %d recentered probes, want %d, ≥ 1, 1, %d, ≥ 1 and ≥ 1",
			len(recs), fits, adopted, decisions, axes, recentered, 2*intervals, lt.Assessments)
	}
	m, err = openManager(dir, mopts, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.Get("db")
	if err != nil {
		t.Fatal(err)
	}
	if ht := s.tuner.T.Timings(); ht.Refits != 0 || ht.KeptChecks != 0 || ht.AdoptedChecks != 1 || ht.Assessments != 0 || ht.ImportanceFits != 0 || ht.Recenters != 0 {
		t.Fatalf("hydrate ran %d refits, %d kept and %d adopted checks, %d assessments, %d forest fits and %d recenter searches, want 0, 0, 1, 0, 0 and 0",
			ht.Refits, ht.KeptChecks, ht.AdoptedChecks, ht.Assessments, ht.ImportanceFits, ht.Recenters)
	}
	sameSnapshotSession(t, m, ref)
	for i := intervals; i < intervals+15; i++ {
		step(m, i)
	}
	sameSnapshotSession(t, m, ref)
}

// derivationOutcome is shiftOutcome whose performance rises for twelve
// intervals and then sinks slowly, so a hypercube's failure streaks
// shrink it to a line whose direction the importance oracle picks, and
// whose two dips below τ put the model on a recentering probe.
func derivationOutcome(i int) Outcome {
	o := shiftOutcome(i)
	switch {
	case i == 17 || i == 29:
		o.Performance = 90
	case i < 12:
		o.Performance = 110 + float64(i)
	default:
		o.Performance = 125 - 0.5*float64(i-12)
	}
	o.Metrics.QPS = o.Performance
	return o
}

// sameSnapshotSession fails unless the managed session "db" serializes
// to the same bytes as ref.
func sameSnapshotSession(t *testing.T, m *Manager, ref *Session) {
	t.Helper()
	got, err := m.Snapshot("db")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the hydrated session's snapshot differs from the never-restarted session's")
	}
}

// TestRestoreStreamVerdicts pins the streaming replay's verdicts on the
// golden base (next event 6): a record before next is skipped unread, a
// gap or an undecodable record fails naming the record's position in
// the log, a base that does not parse reports its own error even over a
// corrupt tail, and no tail restores the base alone. Each failing tail
// restores once its named record is dropped, so the verdict is that
// record's.
func TestRestoreStreamVerdicts(t *testing.T) {
	base := goldenAtVersion(t, SnapshotVersion)
	oc := goldenOutcome(3)
	report := event{Kind: eventReport, Outcome: &oc}
	rec := func(idx int, ev event) []byte {
		data, err := json.Marshal(walRecord{walEnvelope{Idx: idx, Iter: 4}, ev})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	garbage := []byte(`{"idx": 6, "event": {`)
	const restores = -1
	cases := []struct {
		name     string
		base     []byte
		recs     [][]byte
		replayed int
		badRec   int // the record the error names; restores: none
	}{
		{"no tail", base, nil, 0, restores},
		{"tail", base, [][]byte{rec(6, report)}, 1, restores},
		{"stale record skipped", base, [][]byte{rec(5, event{Kind: "bogus"}), rec(6, report)}, 1, restores},
		{"gap", base, [][]byte{rec(6, report), rec(8, report)}, 0, 1},
		{"undecodable record", base, [][]byte{rec(6, report), garbage}, 0, 1},
		{"report without outcome", base, [][]byte{rec(6, event{Kind: eventReport})}, 0, 0},
		{"unknown kind", base, [][]byte{rec(6, event{Kind: "bogus"})}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, replayed, err := restore(tc.base, tc.recs, nil)
			if tc.badRec == restores {
				if err != nil {
					t.Fatal(err)
				}
				if replayed != tc.replayed || s.next != 6+tc.replayed {
					t.Fatalf("replayed %d events to next %d, want %d to %d", replayed, s.next, tc.replayed, 6+tc.replayed)
				}
				return
			}
			var te *tailError
			if !errors.As(err, &te) || te.i != tc.badRec {
				t.Fatalf("error %v does not name record %d", err, tc.badRec)
			}
			var syntax *json.SyntaxError
			if isGarbage := bytes.Equal(tc.recs[te.i], garbage); errors.As(err, &syntax) != isGarbage {
				t.Fatalf("error %v: a decode error is not the verdict on an undecodable record", err)
			}
			if _, _, err := restore(tc.base, tc.recs[:te.i], nil); err != nil {
				t.Fatalf("the tail before record %d does not restore: %v", te.i, err)
			}
		})
	}
	// A base that does not parse fails with exactly the error it fails
	// with alone, never the corrupt tail's.
	for _, bad := range [][]byte{[]byte("{"), goldenAtVersion(t, 9)} {
		_, _, want := restore(bad, nil, nil)
		_, _, err := restore(bad, [][]byte{garbage}, nil)
		var te *tailError
		if want == nil || errors.As(err, &te) || !reflect.DeepEqual(err, want) {
			t.Fatalf("bad base with a corrupt tail: error %v, want the base's %v", err, want)
		}
	}
	if _, err := Restore(base); err != nil {
		t.Fatalf("Restore of the golden base: %v", err)
	}
}

// BenchmarkHydrate measures one hydrate of a case5 session whose base
// carries a 64-event tail: the base read and parse, the WAL open and
// scan, the tail's decode and the replay.
func BenchmarkHydrate(b *testing.B) {
	dir := b.TempDir()
	mopts := ManagerOptions{NoFsync: true}
	m, err := openManager(dir, mopts, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Create("db", Config{Space: "case5", Seed: 7}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := m.Suggest(context.Background(), "db"); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Report("db", goldenOutcome(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}
	if m, err = openManager(dir, mopts, 1<<20); err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &managedSession{baseTail: m.sessionTail("db")}
		if err := m.hydrateLocked(e); err != nil {
			b.Fatal(err)
		}
		e.log.Close()
	}
	b.StopTimer()
	if got := m.Stats().ReplayedEvents; got != 64*int64(b.N) {
		b.Fatalf("replayed %d events over %d hydrates, want 64 each", got, b.N)
	}
}
