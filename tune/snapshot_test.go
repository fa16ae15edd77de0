package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
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
	if _, err := Restore([]byte(`{"version": 9, "kind": "something.Else"}`)); err == nil {
		t.Fatal("accepted wrong document kind")
	}
	// A report tail record without an outcome is refused; the same record
	// with one restores on the same base, so the error is the outcome's.
	base := goldenAtVersion(t, SnapshotVersion)
	tailRecord := func(ev event) [][]byte {
		data, err := json.Marshal(walRecord{walEnvelope{Idx: 6, Iter: 4}, ev})
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{data}
	}
	if _, _, err := restore(base, tailRecord(event{Kind: eventReport}), nil); err == nil {
		t.Fatal("accepted report event without outcome")
	}
	oc := goldenOutcome(3)
	if _, _, err := restore(base, tailRecord(event{Kind: eventReport, Outcome: &oc}), nil); err != nil {
		t.Fatalf("well-formed report tail record: %v", err)
	}
}

// TestRestoreRefusesCorruptFactor: a snapshot whose stored GP factor has
// a diagonal entry that is not positive is refused, naming the entry,
// instead of serving advice computed from it. The session is aged so
// that its models hold factors from full factorizations and extensions.
func TestRestoreRefusesCorruptFactor(t *testing.T) {
	s, err := NewSession(Config{Space: "case5", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, s, knobs.CaseStudy5(), workload.NewYCSB(1), 30, 1)
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(data); err != nil {
		t.Fatalf("the intact snapshot does not restore: %v", err)
	}
	for _, bad := range []float64{0, -1, math.NaN()} {
		doc, err := parseSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		damaged := 0
		for i := range doc.State.Models {
			if g := &doc.State.Models[i].GP; g.Fresh && len(g.Chol) > 0 {
				g.Chol[0] = bad
				damaged++
			}
		}
		if damaged == 0 {
			t.Fatal("no model holds a factor")
		}
		corrupt, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Restore(corrupt)
		if err == nil {
			t.Fatalf("restored a snapshot whose factors start with %v", bad)
		}
		//tunevet:ignore errsentinel -- the assertion is on the operator-facing text (it must name the entry), not on error identity
		if !strings.Contains(err.Error(), "diagonal entry 0 ") {
			t.Fatalf("chol[0] = %v: error %q does not name the entry", bad, err)
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
	for _, v := range []int{0, 1, 9, 11, 999} {
		_, err := Restore(goldenAtVersion(t, v))
		if err == nil {
			t.Fatalf("restored a version-%d snapshot", v)
		}
		for _, frag := range []string{fmt.Sprintf("version %d", v), "want 10"} {
			//tunevet:ignore errsentinel -- the assertion is on the operator-facing text (it must name both versions), not on error identity
			if !strings.Contains(err.Error(), frag) {
				t.Fatalf("version-%d error %q does not mention %q", v, err, frag)
			}
		}
	}
}
