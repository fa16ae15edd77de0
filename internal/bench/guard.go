package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Guard compares fresh BENCH_*.json artifacts against committed
// baselines so CI can fail on benchmark regressions. Only deterministic
// metrics are compared — per-series final cumulative objective, unsafe
// counts and failure counts. Timing fields (wall clock, propose/feedback
// milliseconds) vary across machines and are never compared.

// Tolerances is the per-metric slack the guard allows before declaring a
// regression. Runs are deterministic for a fixed (code, seed, iters), so
// any drift is a code change; the tolerances distinguish "noise-sized
// algorithmic drift" from a genuine regression.
type Tolerances struct {
	// PerfRel is the relative tolerance on each series' final
	// cumulative objective (objectives are maximized, so only downward
	// drift beyond this fraction of |baseline| regresses).
	PerfRel float64
	// UnsafeSlack is how many extra unsafe recommendations a series may
	// record.
	UnsafeSlack int
	// FailureSlack is how many extra instance failures a series may
	// record.
	FailureSlack int
}

// DefaultTolerances mirrors the CI settings: 10% on performance, two
// extra unsafe recommendations, no extra failures.
func DefaultTolerances() Tolerances {
	return Tolerances{PerfRel: 0.10, UnsafeSlack: 2, FailureSlack: 0}
}

// GuardFinding is one comparison between a baseline and a fresh
// artifact.
type GuardFinding struct {
	Artifact string // experiment id (baseline file stem)
	Series   string // series name; empty for artifact-level findings
	Metric   string
	Baseline float64
	Fresh    float64
	// Regressed marks the finding as failing the tolerance.
	Regressed bool
	Detail    string
}

// String renders the finding for CI logs.
func (f GuardFinding) String() string {
	loc := f.Artifact
	if f.Series != "" {
		loc += "/" + f.Series
	}
	status := "ok"
	if f.Regressed {
		status = "REGRESSION"
	}
	if f.Detail != "" {
		return fmt.Sprintf("%-10s %s %s: %s", status, loc, f.Metric, f.Detail)
	}
	return fmt.Sprintf("%-10s %s %s: baseline %.6g, fresh %.6g", status, loc, f.Metric, f.Baseline, f.Fresh)
}

// LoadArtifact reads one BENCH_*.json file.
func LoadArtifact(path string) (Artifact, error) {
	var a Artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// CompareArtifacts compares a fresh artifact against its baseline and
// returns one finding per checked metric (regressed or not).
func CompareArtifacts(base, fresh Artifact, tol Tolerances) []GuardFinding {
	var out []GuardFinding
	at := func(series, metric string, b, f float64, regressed bool, detail string) {
		out = append(out, GuardFinding{
			Artifact: base.ID, Series: series, Metric: metric,
			Baseline: b, Fresh: f, Regressed: regressed, Detail: detail,
		})
	}

	// Comparisons are only meaningful when both runs used the same
	// experiment parameters.
	if base.Iters != fresh.Iters || base.Seed != fresh.Seed {
		at("", "run-config", 0, 0, true,
			fmt.Sprintf("baseline ran iters=%d seed=%d, fresh ran iters=%d seed=%d — regenerate one side",
				base.Iters, base.Seed, fresh.Iters, fresh.Seed))
		return out
	}

	freshByName := make(map[string]*Series, len(fresh.Series))
	for _, s := range fresh.Series {
		freshByName[s.Name] = s
	}
	for _, bs := range base.Series {
		fs, ok := freshByName[bs.Name]
		if !ok {
			at(bs.Name, "presence", 0, 0, true, "series present in baseline but missing from fresh artifact")
			continue
		}
		bCum, fCum := bs.CumFinal(), fs.CumFinal()
		// Objectives are maximized (negative for OLAP exec time /
		// latency), so regression means drifting down beyond tolerance.
		at(bs.Name, "cum_final", bCum, fCum, fCum < bCum-tol.PerfRel*math.Abs(bCum), "")
		at(bs.Name, "unsafe", float64(bs.Unsafe), float64(fs.Unsafe), fs.Unsafe > bs.Unsafe+tol.UnsafeSlack, "")
		at(bs.Name, "failures", float64(bs.Failures), float64(fs.Failures), fs.Failures > bs.Failures+tol.FailureSlack, "")
	}
	return out
}

// replicateStem maps a replicate artifact file name
// (BENCH_<id>_s<seed>.json, written by benchrunner -replicates for every
// replicate after the first) to its primary file name (BENCH_<id>.json).
// ok is false for primary artifact names.
func replicateStem(name string) (stem string, ok bool) {
	base := strings.TrimSuffix(name, ".json")
	if base == name {
		return "", false
	}
	i := strings.LastIndex(base, "_s")
	if i < 0 {
		return "", false
	}
	digits := strings.TrimPrefix(base[i+2:], "-")
	if digits == "" {
		return "", false
	}
	for _, r := range digits {
		if r < '0' || r > '9' {
			return "", false
		}
	}
	return base[:i] + ".json", true
}

// MedianArtifact collapses replicate runs of one experiment into a
// synthetic artifact whose gated metrics — per-series final cumulative
// objective, unsafe count, failure count — are the median across
// replicates (lower median for even counts). The synthetic artifact
// carries the primary replicate's Iters and Seed so CompareArtifacts'
// run-config check still matches the committed baseline; seeds
// necessarily differ across replicates, and the median is exactly the
// mechanism that makes cross-seed comparison against a single-seed
// baseline meaningful: one unlucky seed or slow machine cannot flip the
// verdict.
func MedianArtifact(primary Artifact, replicates []Artifact) Artifact {
	runs := append([]Artifact{primary}, replicates...)
	out := Artifact{ID: primary.ID, Title: primary.Title, Iters: primary.Iters, Seed: primary.Seed}
	for _, ps := range primary.Series {
		var cums []float64
		var unsafes, fails []int
		for _, a := range runs {
			for _, s := range a.Series {
				if s.Name == ps.Name {
					cums = append(cums, s.CumFinal())
					unsafes = append(unsafes, s.Unsafe)
					fails = append(fails, s.Failures)
					break
				}
			}
		}
		out.Series = append(out.Series, &Series{
			Name:     ps.Name,
			Cum:      []float64{lowerMedian(cums)},
			Unsafe:   lowerMedianInt(unsafes),
			Failures: lowerMedianInt(fails),
		})
	}
	return out
}

func lowerMedian(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func lowerMedianInt(v []int) int {
	if len(v) == 0 {
		return 0
	}
	s := append([]int(nil), v...)
	sort.Ints(s)
	return s[(len(s)-1)/2]
}

// loadReplicates loads every BENCH_<id>_s<seed>.json replicate of the
// named primary artifact from dir (sorted for determinism).
func loadReplicates(dir, primaryName string) ([]Artifact, error) {
	pattern := strings.TrimSuffix(primaryName, ".json") + "_s*.json"
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []Artifact
	for _, p := range paths {
		if stem, ok := replicateStem(filepath.Base(p)); !ok || stem != primaryName {
			continue
		}
		a, err := LoadArtifact(p)
		if err != nil {
			return nil, fmt.Errorf("replicate %s: %w", filepath.Base(p), err)
		}
		out = append(out, a)
	}
	return out, nil
}

// GuardResult aggregates a whole directory comparison.
type GuardResult struct {
	Findings []GuardFinding
	// NewArtifacts lists fresh artifact files with no committed
	// baseline (informational: commit them to start their trajectory).
	NewArtifacts []string
}

// Regressions returns only the failing findings.
func (r *GuardResult) Regressions() []GuardFinding {
	var out []GuardFinding
	for _, f := range r.Findings {
		if f.Regressed {
			out = append(out, f)
		}
	}
	return out
}

// GuardDirs compares every baseline BENCH_*.json in baselineDir against
// its counterpart in freshDir. A baseline whose fresh counterpart is
// missing is a regression (the experiment disappeared); a fresh artifact
// without a baseline is reported in NewArtifacts but does not fail.
//
// When freshDir also holds BENCH_<id>_s<seed>.json replicates (from
// benchrunner -replicates), the guard compares the baseline against the
// replicates' median via MedianArtifact instead of the single primary
// run, and the replicate files themselves are neither compared directly
// nor reported as new.
func GuardDirs(baselineDir, freshDir string, tol Tolerances) (GuardResult, error) {
	var res GuardResult
	basePaths, err := filepath.Glob(filepath.Join(baselineDir, "BENCH_*.json"))
	if err != nil {
		return res, err
	}
	if len(basePaths) == 0 {
		return res, fmt.Errorf("no BENCH_*.json baselines in %s", baselineDir)
	}
	sort.Strings(basePaths)
	for _, bp := range basePaths {
		name := filepath.Base(bp)
		if _, ok := replicateStem(name); ok {
			// A stray committed replicate is not a baseline of its own.
			continue
		}
		base, err := LoadArtifact(bp)
		if err != nil {
			return res, fmt.Errorf("baseline %s: %w", name, err)
		}
		fp := filepath.Join(freshDir, name)
		if _, err := os.Stat(fp); err != nil {
			res.Findings = append(res.Findings, GuardFinding{
				Artifact: base.ID, Metric: "presence", Regressed: true,
				Detail: fmt.Sprintf("baseline %s has no fresh artifact in %s", name, freshDir),
			})
			continue
		}
		freshArt, err := LoadArtifact(fp)
		if err != nil {
			return res, fmt.Errorf("fresh %s: %w", name, err)
		}
		reps, err := loadReplicates(freshDir, name)
		if err != nil {
			return res, err
		}
		if len(reps) > 0 {
			freshArt = MedianArtifact(freshArt, reps)
		}
		res.Findings = append(res.Findings, CompareArtifacts(base, freshArt, tol)...)
	}

	freshPaths, err := filepath.Glob(filepath.Join(freshDir, "BENCH_*.json"))
	if err != nil {
		return res, err
	}
	sort.Strings(freshPaths)
	known := make(map[string]bool, len(basePaths))
	for _, bp := range basePaths {
		known[filepath.Base(bp)] = true
	}
	for _, fp := range freshPaths {
		name := filepath.Base(fp)
		if _, ok := replicateStem(name); ok {
			continue // folded into its primary's median, never "new"
		}
		if !known[name] {
			res.NewArtifacts = append(res.NewArtifacts, name)
		}
	}
	return res, nil
}

// UpdateBaselines copies every fresh BENCH_*.json into baselineDir (the
// documented baseline-update workflow after an intentional change) and
// returns the copied file names. Replicate files (BENCH_<id>_s<seed>.json)
// are skipped: only primary artifacts are committed as baselines, and
// replicates re-enter through the guard's median aggregation.
func UpdateBaselines(baselineDir, freshDir string) ([]string, error) {
	freshPaths, err := filepath.Glob(filepath.Join(freshDir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	if len(freshPaths) == 0 {
		return nil, fmt.Errorf("no BENCH_*.json artifacts in %s", freshDir)
	}
	if err := os.MkdirAll(baselineDir, 0o755); err != nil {
		return nil, err
	}
	sort.Strings(freshPaths)
	var copied []string
	for _, fp := range freshPaths {
		name := filepath.Base(fp)
		if _, ok := replicateStem(name); ok {
			continue
		}
		data, err := os.ReadFile(fp)
		if err != nil {
			return copied, err
		}
		if err := os.WriteFile(filepath.Join(baselineDir, name), data, 0o644); err != nil {
			return copied, err
		}
		copied = append(copied, name)
	}
	return copied, nil
}
