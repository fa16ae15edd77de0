package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func guardArtifact(id string, cum float64, unsafe, failures int) Artifact {
	return Artifact{
		ID: id, Iters: 20, Seed: 1,
		Series: []*Series{{
			Name: "OnlineTune", Cum: []float64{cum / 2, cum},
			Unsafe: unsafe, Failures: failures,
		}},
	}
}

func regressionsOf(fs []GuardFinding) []GuardFinding {
	r := GuardResult{Findings: fs}
	return r.Regressions()
}

func TestCompareArtifactsWithinTolerance(t *testing.T) {
	base := guardArtifact("ext4", 1000, 3, 0)
	fresh := guardArtifact("ext4", 950, 5, 0) // -5% perf, +2 unsafe: allowed
	regs := regressionsOf(CompareArtifacts(base, fresh, DefaultTolerances()))
	if len(regs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", regs)
	}
}

func TestCompareArtifactsPerfRegression(t *testing.T) {
	base := guardArtifact("ext4", 1000, 0, 0)
	fresh := guardArtifact("ext4", 850, 0, 0) // -15% > 10% tolerance
	regs := regressionsOf(CompareArtifacts(base, fresh, DefaultTolerances()))
	if len(regs) != 1 || regs[0].Metric != "cum_final" {
		t.Fatalf("want one cum_final regression, got %v", regs)
	}
	// Improvement is never a regression.
	better := guardArtifact("ext4", 1400, 0, 0)
	if regs := regressionsOf(CompareArtifacts(base, better, DefaultTolerances())); len(regs) != 0 {
		t.Fatalf("improvement flagged: %v", regs)
	}
}

func TestCompareArtifactsNegativeObjective(t *testing.T) {
	// OLAP objectives are negative (−exec time): more negative = worse.
	base := guardArtifact("fig5job", -1000, 0, 0)
	worse := guardArtifact("fig5job", -1200, 0, 0)
	regs := regressionsOf(CompareArtifacts(base, worse, DefaultTolerances()))
	if len(regs) != 1 {
		t.Fatalf("20%% slower OLAP should regress, got %v", regs)
	}
	slightlyWorse := guardArtifact("fig5job", -1050, 0, 0)
	if regs := regressionsOf(CompareArtifacts(base, slightlyWorse, DefaultTolerances())); len(regs) != 0 {
		t.Fatalf("5%% OLAP drift should pass, got %v", regs)
	}
}

func TestCompareArtifactsSafetyRegression(t *testing.T) {
	base := guardArtifact("ext4", 1000, 1, 0)
	unsafe := guardArtifact("ext4", 1000, 4, 0) // +3 > slack 2
	regs := regressionsOf(CompareArtifacts(base, unsafe, DefaultTolerances()))
	if len(regs) != 1 || regs[0].Metric != "unsafe" {
		t.Fatalf("want unsafe regression, got %v", regs)
	}
	failed := guardArtifact("ext4", 1000, 1, 1) // any new failure
	regs = regressionsOf(CompareArtifacts(base, failed, DefaultTolerances()))
	if len(regs) != 1 || regs[0].Metric != "failures" {
		t.Fatalf("want failures regression, got %v", regs)
	}
}

func TestCompareArtifactsMissingSeriesAndConfigMismatch(t *testing.T) {
	base := guardArtifact("ext4", 1000, 0, 0)
	fresh := guardArtifact("ext4", 1000, 0, 0)
	fresh.Series[0].Name = "Renamed"
	regs := regressionsOf(CompareArtifacts(base, fresh, DefaultTolerances()))
	if len(regs) != 1 || regs[0].Metric != "presence" {
		t.Fatalf("want presence regression, got %v", regs)
	}

	mismatch := guardArtifact("ext4", 1000, 0, 0)
	mismatch.Iters = 40
	regs = regressionsOf(CompareArtifacts(base, mismatch, DefaultTolerances()))
	if len(regs) != 1 || regs[0].Metric != "run-config" {
		t.Fatalf("want run-config regression, got %v", regs)
	}
}

func writeGuardArtifact(t *testing.T, dir string, a Artifact) {
	t.Helper()
	if _, err := WriteJSON(dir, a, false); err != nil {
		t.Fatal(err)
	}
}

func TestGuardDirs(t *testing.T) {
	baseDir, freshDir := t.TempDir(), t.TempDir()
	writeGuardArtifact(t, baseDir, guardArtifact("a", 1000, 0, 0))
	writeGuardArtifact(t, baseDir, guardArtifact("b", 500, 0, 0))
	writeGuardArtifact(t, freshDir, guardArtifact("a", 990, 0, 0))
	// "b" missing from fresh → regression; "c" new in fresh → info.
	writeGuardArtifact(t, freshDir, guardArtifact("c", 100, 0, 0))

	res, err := GuardDirs(baseDir, freshDir, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	regs := res.Regressions()
	if len(regs) != 1 || regs[0].Artifact != "b" || regs[0].Metric != "presence" {
		t.Fatalf("want one missing-artifact regression for b, got %v", regs)
	}
	if len(res.NewArtifacts) != 1 || res.NewArtifacts[0] != "BENCH_c.json" {
		t.Fatalf("new artifacts = %v", res.NewArtifacts)
	}
}

func TestGuardDirsEmptyBaselineErrors(t *testing.T) {
	if _, err := GuardDirs(t.TempDir(), t.TempDir(), DefaultTolerances()); err == nil {
		t.Fatal("empty baseline dir should error, not silently pass")
	}
}

func TestUpdateBaselines(t *testing.T) {
	baseDir, freshDir := filepath.Join(t.TempDir(), "baseline"), t.TempDir()
	writeGuardArtifact(t, freshDir, guardArtifact("a", 1000, 0, 0))
	writeGuardArtifact(t, freshDir, guardArtifact("b", 500, 0, 0))
	copied, err := UpdateBaselines(baseDir, freshDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(copied) != 2 {
		t.Fatalf("copied = %v", copied)
	}
	for _, name := range copied {
		if _, err := os.Stat(filepath.Join(baseDir, name)); err != nil {
			t.Fatalf("baseline %s not written: %v", name, err)
		}
	}
	// After updating, the guard passes.
	res, err := GuardDirs(baseDir, freshDir, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("freshly updated baselines should pass: %v", regs)
	}
}

func TestReplicateStem(t *testing.T) {
	cases := []struct {
		name string
		stem string
		ok   bool
	}{
		{"BENCH_ext5_s2.json", "BENCH_ext5.json", true},
		{"BENCH_ext5_s-3.json", "BENCH_ext5.json", true},
		{"BENCH_ext5.json", "", false},
		{"BENCH_ext5_s.json", "", false},
		{"BENCH_ext5_sx.json", "", false},
		{"BENCH_ext5_s2.txt", "", false},
	}
	for _, c := range cases {
		stem, ok := replicateStem(c.name)
		if stem != c.stem || ok != c.ok {
			t.Errorf("replicateStem(%q) = %q, %v; want %q, %v", c.name, stem, ok, c.stem, c.ok)
		}
	}
}

func TestMedianArtifact(t *testing.T) {
	primary := guardArtifact("ext5", 850, 0, 1)
	r1, r2 := guardArtifact("ext5", 990, 2, 0), guardArtifact("ext5", 1000, 4, 0)
	r1.Seed, r2.Seed = 2, 3
	med := MedianArtifact(primary, []Artifact{r1, r2})
	if med.ID != "ext5" || med.Iters != 20 || med.Seed != 1 {
		t.Fatalf("median artifact config = %+v (must carry primary's Iters/Seed)", med)
	}
	s := med.Series[0]
	if got := s.CumFinal(); got != 990 {
		t.Errorf("median cum_final = %v, want 990", got)
	}
	if s.Unsafe != 2 || s.Failures != 0 {
		t.Errorf("median unsafe/failures = %d/%d, want 2/0", s.Unsafe, s.Failures)
	}
}

func TestGuardDirsMedianOfReplicates(t *testing.T) {
	baseDir, freshDir := t.TempDir(), t.TempDir()
	writeGuardArtifact(t, baseDir, guardArtifact("a", 1000, 0, 0))
	// Primary run regressed on its own, but two of three replicates are
	// healthy: the median rides over the outlier.
	writeGuardArtifact(t, freshDir, guardArtifact("a", 700, 0, 0))
	for seed, cum := range map[int64]float64{2: 990, 3: 1010} {
		rep := guardArtifact("a", cum, 0, 0)
		rep.Seed = seed
		if _, err := WriteJSON(freshDir, rep, true); err != nil {
			t.Fatal(err)
		}
	}
	res, err := GuardDirs(baseDir, freshDir, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("median of (700, 990, 1010) = 990 should pass, got %v", regs)
	}
	if len(res.NewArtifacts) != 0 {
		t.Fatalf("replicates must not be reported as new artifacts: %v", res.NewArtifacts)
	}

	// Majority regressed → the median regresses even if one replicate is
	// healthy.
	for seed, cum := range map[int64]float64{2: 700, 3: 710} {
		rep := guardArtifact("a", cum, 0, 0)
		rep.Seed = seed
		if _, err := WriteJSON(freshDir, rep, true); err != nil {
			t.Fatal(err)
		}
	}
	writeGuardArtifact(t, freshDir, guardArtifact("a", 1000, 0, 0))
	res, err = GuardDirs(baseDir, freshDir, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	regs := res.Regressions()
	if len(regs) != 1 || regs[0].Metric != "cum_final" {
		t.Fatalf("median of (1000, 700, 710) = 710 should regress, got %v", regs)
	}
}

func TestUpdateBaselinesSkipsReplicates(t *testing.T) {
	baseDir, freshDir := filepath.Join(t.TempDir(), "baseline"), t.TempDir()
	writeGuardArtifact(t, freshDir, guardArtifact("a", 1000, 0, 0))
	rep := guardArtifact("a", 990, 0, 0)
	rep.Seed = 2
	if _, err := WriteJSON(freshDir, rep, true); err != nil {
		t.Fatal(err)
	}
	copied, err := UpdateBaselines(baseDir, freshDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(copied) != 1 || copied[0] != "BENCH_a.json" {
		t.Fatalf("copied = %v, want only the primary artifact", copied)
	}
}

func TestGuardFindingString(t *testing.T) {
	f := GuardFinding{Artifact: "ext4", Series: "OnlineTune", Metric: "cum_final", Baseline: 1000, Fresh: 800, Regressed: true}
	s := f.String()
	if !strings.Contains(s, "REGRESSION") || !strings.Contains(s, "ext4/OnlineTune") {
		t.Fatalf("finding string = %q", s)
	}
}
