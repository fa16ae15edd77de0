package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under bench/baseline from this run")

const (
	baselineDir   = "../../bench/baseline"
	baselineIters = 20
)

// wallClockBodies names the experiments whose bodies report wall-clock
// time; their golden files keep the series and drop the body.
var wallClockBodies = []string{"fig8", "tableA1"}

// baselineRun is one pinned (experiment, seed) run.
type baselineRun struct {
	id   string
	seed int64
}

// file is the run's golden file name: BENCH_<id>.json at seed 1,
// BENCH_<id>_s<seed>.json at any other seed.
func (r baselineRun) file() string {
	if r.seed == 1 {
		return "BENCH_" + r.id + ".json"
	}
	return fmt.Sprintf("BENCH_%s_s%d.json", r.id, r.seed)
}

// baselineRuns lists every pinned run: each experiment at seed 1, plus
// the rollout gates ext5 and ext9 at seeds 2 and 3.
func baselineRuns() []baselineRun {
	var runs []baselineRun
	for _, id := range ExperimentIDs() {
		runs = append(runs, baselineRun{id, 1})
	}
	for _, id := range []string{"ext5", "ext9"} {
		for _, seed := range []int64{2, 3} {
			runs = append(runs, baselineRun{id, seed})
		}
	}
	return runs
}

// deterministicArtifact keeps the part of a run that is a function of
// (code, iters, seed) alone: no wall clock, no per-iteration timings and
// no wall-clock body.
func deterministicArtifact(rep Report, iters int, seed int64) Artifact {
	a := Artifact{ID: rep.ID, Title: rep.Title, Iters: iters, Seed: seed}
	if !slices.Contains(wallClockBodies, rep.ID) {
		a.Body = rep.Body
	}
	for _, s := range rep.Series {
		c := *s
		c.ProposeMs, c.FeedbackMs = nil, nil
		a.Series = append(a.Series, &c)
	}
	return a
}

// firstDiff shows where got first departs from want, with some context.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(0, i-40)
	snippet := func(b []byte) []byte { return b[min(from, len(b)):min(from+120, len(b))] }
	return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q",
		bytes.Count(got[:i], []byte("\n"))+1, snippet(got), snippet(want))
}

// TestBaselines pins every paper experiment exactly: each run's
// deterministic artifact must equal its golden file byte for byte, every
// golden file must be produced by a run, and every run must have a
// golden file. After an intentional change, rewrite the files with
//
//	go test ./internal/bench -run TestBaselines -update
//
// and review the diff.
func TestBaselines(t *testing.T) {
	runs := baselineRuns()
	produced := make(map[string]bool, len(runs))
	for _, r := range runs {
		produced[r.file()] = true
	}
	t.Run("no stray golden files", func(t *testing.T) {
		paths, err := filepath.Glob(filepath.Join(baselineDir, "BENCH_*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if produced[filepath.Base(p)] {
				continue
			}
			if *update {
				if err := os.Remove(p); err != nil {
					t.Fatal(err)
				}
				continue
			}
			t.Errorf("%s is produced by no run: delete it, or run with -update", p)
		}
	})
	for _, r := range runs {
		t.Run(strings.TrimSuffix(r.file(), ".json"), func(t *testing.T) {
			t.Parallel()
			rep, err := Experiment(r.id, baselineIters, r.seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := marshalArtifact(deterministicArtifact(rep, baselineIters, r.seed))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(baselineDir, r.file())
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from this run at %s\n(if the change is intentional, run with -update and review the diff)", path, firstDiff(got, want))
			}
		})
	}
}
