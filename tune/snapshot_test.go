package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenOutcome builds a small fixed outcome for the schema golden test.
func goldenOutcome(i int) Outcome {
	return Outcome{
		Workload: Workload{
			Statements: []Statement{
				{SQL: "SELECT c_balance FROM customer WHERE c_id = 42", Weight: 3},
				{SQL: "UPDATE warehouse SET w_ytd = w_ytd + 7 WHERE w_id = 1", Weight: 1},
			},
			Unlimited: true,
			ReadFrac:  0.75,
			Skew:      0.5,
			DataGB:    18,
		},
		Stats:       OptimizerStats{RowsExamined: 120, FilterPct: 30, IndexUsedFrac: 1},
		Metrics:     Metrics{BufferPoolHitRate: 0.96, QPS: 20000 + float64(i)*100},
		Performance: 20000 + float64(i)*100,
		Baseline:    20000,
	}
}

// TestSnapshotGolden pins the versioned snapshot JSON schema: a small
// deterministic session must serialize to exactly the committed golden
// bytes. Schema changes are allowed only together with a version bump
// and a deliberate `go test ./tune -run Golden -update`.
func TestSnapshotGolden(t *testing.T) {
	s, err := NewSession(Config{Space: "case5", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Suggest(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := s.Report(goldenOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "snapshot_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./tune -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot schema drifted from golden file %s;\nif intentional, bump SnapshotVersion and re-run with -update\ngot:\n%s", path, got)
	}

	// The snapshot must parse and carry the documented top-level schema.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"version", "kind", "config", "iter", "next", "state"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("snapshot missing %q section", key)
		}
	}
	var st sessionState
	if err := json.Unmarshal(doc["state"], &st); err != nil {
		t.Fatal(err)
	}
	if st.Observations != 3 || len(st.Models) == 0 || len(st.Vocabulary) == 0 {
		t.Fatalf("state summary incomplete: %d obs, %d models, %d tokens",
			st.Observations, len(st.Models), len(st.Vocabulary))
	}
}

// TestSnapshotRestoreProperty is the round-trip property test: over 100
// iterations on two workloads, a session that is snapshotted, restored
// and continued every 10 iterations must produce advice bitwise
// identical to an uninterrupted session.
func TestSnapshotRestoreProperty(t *testing.T) {
	workloads := []struct {
		name string
		gen  func() workload.Generator
	}{
		{"ycsb", func() workload.Generator { return workload.NewYCSB(5) }},
		{"tpcc", func() workload.Generator { return workload.NewTPCC(5, true) }},
	}
	const iters = 100
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			cfg := Config{Space: "case5", Seed: 7}
			uninterrupted, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			interrupted, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}

			inA := dbsim.New(knobs.CaseStudy5(), 9)
			inB := dbsim.New(knobs.CaseStudy5(), 9)
			genA, genB := wl.gen(), wl.gen()

			step := func(s *Session, in *dbsim.Instance, gen workload.Generator, i int) Advice {
				adv, err := s.Suggest(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				w := gen.At(i)
				res := in.Eval(adv.Config, w, dbsim.EvalOptions{})
				dba := in.DBAResult(w)
				if err := s.Report(Outcome{
					Workload:    WorkloadFromSnapshot(w),
					Stats:       in.OptimizerStats(w),
					Metrics:     res.Metrics,
					Performance: res.Objective(w.OLAP),
					Baseline:    dba.Objective(w.OLAP),
					Failed:      res.Failed,
				}); err != nil {
					t.Fatal(err)
				}
				return adv
			}

			for i := 0; i < iters; i++ {
				if i > 0 && i%10 == 0 {
					data, err := interrupted.Snapshot()
					if err != nil {
						t.Fatalf("iter %d: Snapshot: %v", i, err)
					}
					interrupted, err = Restore(data)
					if err != nil {
						t.Fatalf("iter %d: Restore: %v", i, err)
					}
				}
				a := step(uninterrupted, inA, genA, i)
				b := step(interrupted, inB, genB, i)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("iter %d: advice diverged after restore\nuninterrupted: %+v\nrestored:      %+v", i, a, b)
				}
			}
			if uninterrupted.Iter() != iters || interrupted.Iter() != iters {
				t.Fatal("iteration counts diverged")
			}
		})
	}
}

// TestSnapshotRestorePG16 pins the restart-equivalence property for the
// PostgreSQL engine: a "pg16" session snapshotted and restored every 10
// iterations produces advice bitwise identical to an uninterrupted one
// (the pg16 space name, engine-tagged rules and PG simulator metrics all
// round-trip through the snapshot).
func TestSnapshotRestorePG16(t *testing.T) {
	cfg := Config{Space: "pg16", Seed: 11}
	uninterrupted, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	interrupted, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inA := dbsim.New(knobs.Postgres16(), 13)
	inB := dbsim.New(knobs.Postgres16(), 13)
	genA, genB := workload.NewTPCC(11, true), workload.NewTPCC(11, true)

	step := func(s *Session, in *dbsim.Instance, gen workload.Generator, i int) Advice {
		adv, err := s.Suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		w := gen.At(i)
		res := in.Eval(adv.Config, w, dbsim.EvalOptions{})
		dba := in.DBAResult(w)
		if err := s.Report(Outcome{
			Workload:    WorkloadFromSnapshot(w),
			Stats:       in.OptimizerStats(w),
			Metrics:     res.Metrics,
			Performance: res.Objective(w.OLAP),
			Baseline:    dba.Objective(w.OLAP),
			Failed:      res.Failed,
		}); err != nil {
			t.Fatal(err)
		}
		return adv
	}

	const iters = 40
	for i := 0; i < iters; i++ {
		if i > 0 && i%10 == 0 {
			data, err := interrupted.Snapshot()
			if err != nil {
				t.Fatalf("iter %d: Snapshot: %v", i, err)
			}
			interrupted, err = Restore(data)
			if err != nil {
				t.Fatalf("iter %d: Restore: %v", i, err)
			}
		}
		a := step(uninterrupted, inA, genA, i)
		b := step(interrupted, inB, genB, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("iter %d: pg16 advice diverged after restore\nuninterrupted: %+v\nrestored:      %+v", i, a, b)
		}
	}
	if got := interrupted.Config().Space; got != "pg16" {
		t.Fatalf("restored session space = %q", got)
	}
}

// TestRestoreRejectsGarbage covers the error paths of Restore.
func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore([]byte("{")); err == nil {
		t.Fatal("accepted truncated JSON")
	}
	if _, err := Restore([]byte(`{"version": 8, "kind": "something.Else"}`)); err == nil {
		t.Fatal("accepted wrong document kind")
	}
	// A report tail record without an outcome is refused; the same record
	// with one restores on the same base, so the error is the outcome's.
	base := goldenAtVersion(t, SnapshotVersion)
	tailRecord := func(ev event) [][]byte {
		data, err := json.Marshal(walRecord{Idx: 6, Iter: 4, Event: ev})
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{data}
	}
	if _, err := restore(base, tailRecord(event{Kind: eventReport}), nil); err == nil {
		t.Fatal("accepted report event without outcome")
	}
	oc := goldenOutcome(3)
	if _, err := restore(base, tailRecord(event{Kind: eventReport, Outcome: &oc}), nil); err != nil {
		t.Fatalf("well-formed report tail record: %v", err)
	}
}

// TestRestoreIgnoresRetiredTunerOption: every session created with
// explicit tuner options before the FullRefitGP switch was removed wrote
// `"FullRefitGP": false` into its snapshot header. Such a snapshot must
// still restore — the snapshot parser skips keys it does not know — and
// continue with advice identical to an uninterrupted session's.
func TestRestoreIgnoresRetiredTunerOption(t *testing.T) {
	opts := DefaultTunerOptions()
	cfg := Config{Space: "case5", Seed: 13, Options: &opts}
	uninterrupted, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	old, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := func(s *Session, i int) Advice {
		adv, err := s.Suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Report(goldenOutcome(i)); err != nil {
			t.Fatal(err)
		}
		return adv
	}
	const before, after = 6, 6
	for i := 0; i < before; i++ {
		step(uninterrupted, i)
		step(old, i)
	}
	data, err := old.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	header := []byte(`"options": {`)
	if bytes.Count(data, header) != 1 {
		t.Fatalf("snapshot does not carry exactly one options object:\n%.400s", data)
	}
	stale := bytes.Replace(data, header, []byte(`"options": { "FullRefitGP": false,`), 1)
	restored, err := Restore(stale)
	if err != nil {
		t.Fatalf("snapshot with the retired option does not restore: %v", err)
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("restoring a snapshot with the retired option changed the session's state")
	}
	for i := before; i < before+after; i++ {
		if a, b := step(uninterrupted, i), step(restored, i); !reflect.DeepEqual(a, b) {
			t.Fatalf("iter %d: advice diverged after restoring the old header\nuninterrupted: %+v\nrestored:      %+v", i, a, b)
		}
	}
}

// goldenAtVersion returns the committed golden snapshot with its
// version field re-stamped as v.
func goldenAtVersion(tb testing.TB, v int) []byte {
	tb.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", "snapshot_golden.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Replace(golden, []byte(fmt.Sprintf(`"version": %d`, SnapshotVersion)), []byte(fmt.Sprintf(`"version": %d`, v)), 1)
}

// TestRestoreRejectsOtherVersions: exactly one snapshot version
// restores. The golden document re-stamped with any other version —
// the one just retired, the next one, none — is refused with an error
// naming the version found and the version wanted.
func TestRestoreRejectsOtherVersions(t *testing.T) {
	if _, err := Restore(goldenAtVersion(t, SnapshotVersion)); err != nil {
		t.Fatalf("golden snapshot does not restore: %v", err)
	}
	for _, v := range []int{0, 1, 7, 9, 999} {
		_, err := Restore(goldenAtVersion(t, v))
		if err == nil {
			t.Fatalf("restored a version-%d snapshot", v)
		}
		for _, frag := range []string{fmt.Sprintf("version %d", v), "want 8"} {
			//tunevet:ignore errsentinel -- the assertion is on the operator-facing text (it must name both versions), not on error identity
			if !strings.Contains(err.Error(), frag) {
				t.Fatalf("version-%d error %q does not mention %q", v, err, frag)
			}
		}
	}
}
