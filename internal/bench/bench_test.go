package bench

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/knobs"
	"repro/internal/workload"
)

func TestRunRecordsSeries(t *testing.T) {
	space := knobs.CaseStudy5()
	feat := NewFeaturizer(1)
	s := Run(baselines.NewFixed("DBADefault", space.DBADefault()),
		RunConfig{Space: space, Gen: workload.NewYCSB(1), Iters: 25, Seed: 1, Feat: feat})
	if len(s.Perf) != 25 || len(s.Cum) != 25 || len(s.Tau) != 25 || len(s.Units) != 25 {
		t.Fatalf("series lengths wrong: %d %d %d %d", len(s.Perf), len(s.Cum), len(s.Tau), len(s.Units))
	}
	if s.CumFinal() <= 0 {
		t.Fatal("cumulative throughput should be positive")
	}
	// The DBA default measured against the DBA-default threshold should
	// be (nearly) always safe under the 5% margin.
	if s.Unsafe > 2 {
		t.Fatalf("fixed DBA default counted %d unsafe", s.Unsafe)
	}
	if s.Failures != 0 {
		t.Fatal("fixed DBA default must not fail")
	}
}

func TestRunNegP99Objective(t *testing.T) {
	space := knobs.CaseStudy5()
	feat := NewFeaturizer(1)
	s := Run(baselines.NewFixed("DBADefault", space.DBADefault()),
		RunConfig{Space: space, Gen: workload.NewYCSB(1), Iters: 5, Seed: 1, Feat: feat, Objective: NegP99})
	for _, p := range s.Perf {
		if p >= 0 {
			t.Fatalf("NegP99 objective should be negative, got %v", p)
		}
	}
}

func TestOnlineTuneDiagnosticsRecorded(t *testing.T) {
	space := knobs.CaseStudy5()
	feat := NewFeaturizer(1)
	tuners := StandardTuners(space, feat.Dim(), 1)
	s := Run(tuners[0], RunConfig{Space: space, Gen: workload.NewYCSB(1), Iters: 10, Seed: 1, Feat: feat})
	if s.Name != "OnlineTune" {
		t.Fatalf("first standard tuner should be OnlineTune, got %s", s.Name)
	}
	if len(s.SafetySetSizes) != 10 || len(s.RegionKinds) != 10 {
		t.Fatalf("diagnostics missing: %d %d", len(s.SafetySetSizes), len(s.RegionKinds))
	}
}

func TestExperimentDispatch(t *testing.T) {
	if _, err := Experiment("nope", 1, 1); err == nil {
		t.Fatal("unknown id should error")
	}
	for _, id := range []string{"fig1a", "fig1b", "fig3", "fig4", "fig9"} {
		rep, err := Experiment(id, 20, 1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rep.ID != id || rep.Body == "" || rep.Title == "" {
			t.Fatalf("%s: empty report", id)
		}
	}
}

func TestExperimentIDsAllDispatchable(t *testing.T) {
	// Every listed id must at least be known to the dispatcher (cheap
	// ones run in TestExperimentDispatch; expensive ones are exercised by
	// the benchmarks).
	for _, id := range ExperimentIDs() {
		if !knownID(id) {
			t.Fatalf("id %s not dispatchable", id)
		}
	}
}

func knownID(id string) bool {
	// Ask the dispatcher itself: a bogus id yields the typed error
	// carrying the known-id list (string-matching err.Error() here was
	// the repo's one live errsentinel violation).
	_, err := Experiment("nope", 1, 1)
	var unknown *UnknownExperimentError
	if !errors.As(err, &unknown) {
		return false
	}
	return slices.Contains(unknown.Known, id)
}

func TestFig5SmallRunShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rep, err := Experiment("fig5tpcc", 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"OnlineTune", "BO", "DDPG", "ResTune", "QTune", "MysqlTuner", "MysqlDefault", "DBADefault"} {
		if !strings.Contains(rep.Body, name) {
			t.Fatalf("fig5 missing %s:\n%s", name, rep.Body)
		}
	}
}

func TestExt4CrossEngineMatrixShape(t *testing.T) {
	rep, err := Experiment("ext4", 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every engine × workload cell must contribute its rows and series.
	for _, cell := range []string{
		"OnlineTune-mysql57-tpcc", "OnlineTune-mysql57-ycsb-dynamic",
		"OnlineTune-pg16-tpcc", "OnlineTune-pg16-ycsb-dynamic",
		"DBADefault-pg16-tpcc",
	} {
		if !strings.Contains(rep.Body, cell) {
			t.Fatalf("ext4 missing cell %s:\n%s", cell, rep.Body)
		}
	}
	if len(rep.Series) != 8 {
		t.Fatalf("ext4 should carry 2 engines × 2 workloads × 2 tuners = 8 series, got %d", len(rep.Series))
	}
	if strings.Contains(rep.Body, "REGRESSION") {
		t.Fatalf("ext4 reports a regression at smoke scale:\n%s", rep.Body)
	}
}

// TestExt5CanaryArmNeverWedgesInHold pins that ext5's canary arm keeps
// tuning: every staged phase (canary and a chain target's revalidate
// window alike) is fed paired observations, so a hold never outlasts
// the comparison window. A loop that pairs only some staged phases
// starves the controller and holds forever.
func TestExt5CanaryArmNeverWedgesInHold(t *testing.T) {
	const window = 5 // ext5's Policy.Window
	rep, err := Experiment("ext5", 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	canary := rep.Series[0]
	if canary.Name != "OnlineTune-Canary" {
		t.Fatalf("ext5 series 0 is %q, want the canary arm", canary.Name)
	}
	run, longest := 0, 0
	for _, k := range canary.RegionKinds {
		if k != "hold" {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	if longest == 0 || longest > window {
		t.Fatalf("canary arm's longest run of hold intervals is %d, want 1..%d: staged feedback is not reaching the controller", longest, window)
	}
}

func TestFinalWindow(t *testing.T) {
	s := &Series{Perf: []float64{0, 0, 0, 0, 0, 10, 10, 10, 10, 10}}
	if got := finalWindow(s); got != 10 {
		t.Fatalf("finalWindow over trailing half = %v, want 10 (min window 5)", got)
	}
	if got := finalWindow(&Series{}); got != 0 {
		t.Fatalf("empty series finalWindow = %v", got)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep := Report{
		ID: "unit", Title: "unit test", Body: "body",
		Series: []*Series{{
			Name: "T", Perf: []float64{1, 2}, Tau: []float64{0, 0}, Cum: []float64{1, 3},
			ProposeMs: []float64{0.5, 1.5}, FeedbackMs: []float64{0.5, 0.5},
		}},
	}
	art := NewArtifact(rep, 2, 7, 1500*time.Millisecond)
	path, err := WriteJSON(dir, art, false)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_unit.json" {
		t.Fatalf("artifact name = %s", filepath.Base(path))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if back.ID != "unit" || back.Seed != 7 || back.Iters != 2 || back.WallClockSec != 1.5 {
		t.Fatalf("roundtrip mismatch: %+v", back)
	}
	if len(back.Series) != 1 || back.Series[0].Name != "T" || len(back.Series[0].Perf) != 2 {
		t.Fatalf("series lost in roundtrip: %+v", back.Series)
	}
	if len(back.Overhead) != 1 || back.Overhead[0].MeanProposeMs != 1 || back.Overhead[0].MaxIterMs != 2 {
		t.Fatalf("overhead stats wrong: %+v", back.Overhead)
	}
	// Replicate artifacts get a seed suffix.
	p2, err := WriteJSON(dir, art, true)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p2) != "BENCH_unit_s7.json" {
		t.Fatalf("replicate name = %s", filepath.Base(p2))
	}
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("a", "bb")
	tb.Add(1, 2.5)
	tb.Add("xx", 1e7)
	out := tb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "2.50") {
		t.Fatalf("table output wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("table lines = %d", len(lines))
	}
}

func TestSampleIdx(t *testing.T) {
	idx := sampleIdx(100, 10)
	if len(idx) != 10 || idx[0] != 0 || idx[9] != 99 {
		t.Fatalf("sampleIdx = %v", idx)
	}
	idx = sampleIdx(5, 10)
	if len(idx) != 5 {
		t.Fatalf("short series should return all: %v", idx)
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatal("indices must increase")
		}
	}
}
