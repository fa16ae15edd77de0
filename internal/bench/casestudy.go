package bench

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/baselines"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/mathx"
	"repro/internal/workload"
	"repro/tune"
)

// caseStudyTuners is the comparison set of §7.2 (no MysqlTuner/defaults
// beyond the fixed reference).
func caseStudyTuners(space *knobs.Space, ctxDim int, seed int64) []tune.Tuner {
	return []tune.Tuner{
		tune.NewOnlineTuner(space, ctxDim, space.DBADefault(), seed, tune.DefaultTunerOptions()),
		baselines.NewBO(space, seed+1),
		baselines.NewDDPG(space, seed+2),
		baselines.NewResTune(space, seed+3),
		baselines.NewQTune(space, ctxDim, seed+4),
		baselines.NewFixed("DBADefault", space.DBADefault()),
	}
}

// Fig9YCSBPattern reproduces Figure 9: the YCSB read-ratio schedule.
func Fig9YCSBPattern(iters int) Report {
	t := NewTable("iteration", "read_ratio_pct")
	for _, i := range sampleIdx(iters, 24) {
		t.Add(i, 100*workload.DefaultYCSBReadRatio(i))
	}
	return Report{ID: "fig9", Title: "Figure 9: YCSB workload read-ratio pattern", Body: t.String()}
}

// Fig10ThroughputSurface reproduces Figure 10: throughput as a function
// of two knobs under three read/write mixes, showing knob interaction and
// mix-dependent optima.
func Fig10ThroughputSurface(seed int64) Report {
	space := knobs.CaseStudy5()
	in := dbsim.New(space, seed)
	var b strings.Builder
	for _, mix := range []struct {
		name string
		read float64
	}{{"25/75 read/write", 0.25}, {"75/25 read/write", 0.75}, {"read-only", 1.0}} {
		g := &workload.YCSB{Seed: seed, ReadRatioAt: func(int) float64 { return mix.read }}
		w := g.At(0)
		t := NewTable("bp_gb \\ heap_mb", "16", "256", "1024", "2048")
		type cell struct {
			bp   float64
			vals []float64
		}
		bestTPS, bestBP, bestHeap := 0.0, 0.0, 0.0
		for _, bpGB := range []float64{1, 4, 8, 12} {
			row := cell{bp: bpGB}
			for _, heapMB := range []float64{16, 256, 1024, 2048} {
				cfg := space.DBADefault()
				cfg["innodb_buffer_pool_size"] = bpGB * knobs.GiB
				cfg["max_heap_table_size"] = heapMB * knobs.MiB
				res := in.Eval(cfg, w, dbsim.EvalOptions{NoNoise: true})
				tps := res.Throughput
				if res.Failed {
					tps = 0
				}
				row.vals = append(row.vals, tps)
				if tps > bestTPS {
					bestTPS, bestBP, bestHeap = tps, bpGB, heapMB
				}
			}
			t.Add(row.bp, row.vals[0], row.vals[1], row.vals[2], row.vals[3])
		}
		fmt.Fprintf(&b, "%s (TPS; best: bp=%g GB, heap=%g MB, %.0f tps):\n%s\n", mix.name, bestBP, bestHeap, bestTPS, t.String())
	}
	return Report{ID: "fig10", Title: "Figure 10: throughput surface over knob pairs per workload mix", Body: b.String()}
}

// Fig11YCSBCaseStudy reproduces Figure 11: the 5-knob YCSB case study —
// cumulative results per tuner plus OnlineTune's iterative throughput
// against the per-context best found by exhaustive search.
func Fig11YCSBCaseStudy(iters int, seed int64) Report {
	space := knobs.CaseStudy5()
	gen := workload.NewYCSB(seed)
	feat := NewFeaturizer(seed)
	in := dbsim.New(space, seed)

	// "Best": per read-ratio plateau, grid-search the space offline.
	bestFor := map[float64]knobs.Config{}
	for _, rr := range []float64{1.0, 0.75, 0.5, 0.4} {
		bestFor[rr] = gridBest(in, space, rr)
	}

	var b strings.Builder
	t := NewTable("tuner", "cumulative_txn", "unsafe", "failures")
	var ot *Series
	for _, tn := range caseStudyTuners(space, feat.Dim(), seed) {
		s := Run(tn, RunConfig{Space: space, Gen: gen, Iters: iters, Seed: seed, Feat: feat})
		t.Add(s.Name, s.CumFinal(), s.Unsafe, s.Failures)
		if s.Name == "OnlineTune" {
			ot = s
		}
	}
	// The Best reference: apply the per-plateau optimum each iteration.
	cumBest := 0.0
	bestIter := make([]float64, iters)
	for i := 0; i < iters; i++ {
		w := gen.At(i)
		cfg := bestFor[workload.DefaultYCSBReadRatio(i)]
		r := in.Eval(cfg, w, dbsim.EvalOptions{})
		cumBest += r.Throughput
		bestIter[i] = r.Throughput
	}
	t.Add("Best", cumBest, 0, 0)
	b.WriteString(t.String())

	if ot != nil {
		b.WriteString("\nOnlineTune iterative throughput vs Best (sampled):\n")
		it := NewTable("iter", "read_pct", "onlinetune_tps", "best_tps", "gap_pct")
		for _, i := range sampleIdx(iters, 20) {
			gap := 100 * (1 - ot.Perf[i]/math.Max(bestIter[i], 1))
			it.Add(i, 100*workload.DefaultYCSBReadRatio(i), ot.Perf[i], bestIter[i], gap)
		}
		b.WriteString(it.String())
	}
	return Report{ID: "fig11", Title: "Figure 11: YCSB case study (5 knobs) — cumulative and iterative results", Body: b.String()}
}

// gridBest exhaustively searches a grid for the best config at a fixed
// read ratio (the case study's small joint space admits this), then
// refines the winner with Nelder–Mead on the noise-free objective.
func gridBest(in *dbsim.Instance, space *knobs.Space, readRatio float64) knobs.Config {
	g := &workload.YCSB{Seed: 1, ReadRatioAt: func(int) float64 { return readRatio }}
	w := g.At(0)
	eval := func(u []float64) float64 {
		r := in.Eval(space.Decode(u), w, dbsim.EvalOptions{NoNoise: true})
		if r.Failed {
			return 0
		}
		return r.Throughput
	}
	bestU := space.Encode(space.DBADefault())
	bestV := eval(bestU)
	grid := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	u := make([]float64, space.Dim())
	var rec func(d int)
	rec = func(d int) {
		if d == space.Dim() {
			if v := eval(u); v > bestV {
				bestV = v
				bestU = append([]float64{}, u...)
			}
			return
		}
		for _, x := range grid {
			u[d] = x
			rec(d + 1)
		}
	}
	rec(0)
	lo := make([]float64, space.Dim())
	hi := make([]float64, space.Dim())
	for i := range hi {
		hi[i] = 1
	}
	refined, negV := mathx.NelderMead(func(x []float64) float64 { return -eval(x) }, bestU,
		&mathx.NelderMeadOptions{MaxIter: 400, InitStep: 0.05, LowerClip: lo, UpperClip: hi})
	if -negV > bestV {
		bestU = refined
	}
	return space.Decode(bestU)
}

// Fig12KnobTraces reproduces Figure 12: the values of the top-2 important
// knobs applied over iterations by OnlineTune, ResTune and BO, against
// the approximate unsafe region.
func Fig12KnobTraces(iters int, seed int64) Report {
	space := knobs.CaseStudy5()
	gen := workload.NewYCSB(seed)
	feat := NewFeaturizer(seed)

	var b strings.Builder
	b.WriteString("Approximate unsafe region: innodb_spin_wait_delay ≥ ~700 under write mixes;\n")
	b.WriteString("max_heap_table_size near max combined with large pool risks overcommit.\n\n")
	for _, tn := range []tune.Tuner{
		tune.NewOnlineTuner(space, feat.Dim(), space.DBADefault(), seed, tune.DefaultTunerOptions()),
		baselines.NewResTune(space, seed+3),
		baselines.NewBO(space, seed+1),
	} {
		s := Run(tn, RunConfig{Space: space, Gen: gen, Iters: iters, Seed: seed, Feat: feat})
		t := NewTable("iter", "spin_wait_delay", "max_heap_table_mb")
		spinHigh := 0
		for i := range s.Units {
			cfg := space.Decode(s.Units[i])
			if cfg["innodb_spin_wait_delay"] >= 700 {
				spinHigh++
			}
		}
		for _, i := range sampleIdx(iters, 14) {
			cfg := space.Decode(s.Units[i])
			t.Add(i, cfg["innodb_spin_wait_delay"], cfg["max_heap_table_size"]/knobs.MiB)
		}
		fmt.Fprintf(&b, "%s (iterations with spin≥700: %d):\n%s\n", tn.Name(), spinHigh, t.String())
	}
	return Report{ID: "fig12", Title: "Figure 12: applied values of the top-2 important knobs (YCSB)", Body: b.String()}
}

// Fig13Visualization reproduces Figure 13: OnlineTune's internals over a
// run — model selection, subspace drift from the default, and the size of
// the estimated safety set.
func Fig13Visualization(iters int, seed int64) Report {
	space := knobs.CaseStudy5()
	gen := workload.NewYCSB(seed)
	feat := NewFeaturizer(seed)
	tn := tune.NewOnlineTuner(space, feat.Dim(), space.DBADefault(), seed, tune.DefaultTunerOptions())
	s := Run(tn, RunConfig{Space: space, Gen: gen, Iters: iters, Seed: seed, Feat: feat})

	defaultU := space.Encode(space.DBADefault())
	t := NewTable("iter", "model", "region", "dist_from_default_pct", "safety_set_size", "improv_vs_dba_pct")
	for _, i := range sampleIdx(iters, 24) {
		d := mathx.Dist2(s.Units[i], defaultU) / math.Sqrt(float64(space.Dim())) * 100
		model, region, sss := 0, "-", 0
		if i < len(s.ModelIndices) {
			model = s.ModelIndices[i]
			region = s.RegionKinds[i]
			sss = s.SafetySetSizes[i]
		}
		t.Add(i, model, region, d, sss, 100*(s.Perf[i]/s.Tau[i]-1))
	}
	body := t.String() + fmt.Sprintf("\nmodels at end of run: %d\n", tn.T.NumModels())
	return Report{ID: "fig13", Title: "Figure 13: OnlineTune module visualization (models, subspace drift, safety-set size)", Body: body}
}
