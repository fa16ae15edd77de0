package bench

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/dbsim"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/svm"
	"repro/internal/workload"
	"repro/tune"
)

// Report is one regenerated table or figure.
type Report struct {
	ID    string
	Title string
	Body  string
	// Series carries the raw per-tuner traces for experiments that run
	// the harness, so WriteJSON can persist the perf trajectory; table-
	// or surface-only experiments leave it empty.
	Series []*Series
}

// experiments lists every reproducible artifact in paper order: its id,
// the paper's run length (0 where the experiment takes none) and its
// run.
var experiments = []struct {
	id    string
	iters int
	run   func(iters int, seed int64) Report
}{
	{"fig1a", 0, func(_ int, seed int64) Report { return Fig1aWorkloadTrace(seed) }},
	{"fig1b", 400, func(n int, _ int64) Report { return Fig1bDataGrowth(n) }},
	{"fig1c", 200, Fig1cOfflineExploration},
	{"fig1d", 130, Fig1dFixedConfigDrift},
	{"fig3", 0, func(_ int, seed int64) Report { return Fig3ContextGeneralization(seed) }},
	{"fig4", 0, func(_ int, seed int64) Report { return Fig4ClusterBoundary(seed) }},
	{"fig5tpcc", 400, func(n int, seed int64) Report { return Fig5Dynamic("tpcc", n, seed) }},
	{"fig5twitter", 400, func(n int, seed int64) Report { return Fig5Dynamic("twitter", n, seed) }},
	{"fig5job", 400, func(n int, seed int64) Report { return Fig5Dynamic("job", n, seed) }},
	{"fig6", 400, Fig6OLTPOLAPCycle},
	{"fig7", 360, Fig7RealWorkload},
	{"fig8", 400, Fig8Overhead},
	{"fig9", 400, func(n int, _ int64) Report { return Fig9YCSBPattern(n) }},
	{"fig10", 0, func(_ int, seed int64) Report { return Fig10ThroughputSurface(seed) }},
	{"fig11", 400, Fig11YCSBCaseStudy},
	{"fig12", 400, Fig12KnobTraces},
	{"fig13", 400, Fig13Visualization},
	{"fig14", 400, Fig14AblationContext},
	{"fig15", 400, Fig15AblationSafety},
	{"fig16", 240, Fig16IntervalSizes},
	{"fig17", 400, Fig17MySQLDefaultStart},
	{"table1", 200, Table1StaticWorkloads},
	{"tableA1", 400, TableA1TimeBreakdown},
	{"ext1", 400, Ext1Stopping},
	{"ext4", 300, Ext4CrossEngine},
	{"ext5", 300, Ext5CanaryRollout},
	// ext8's iters are intervals per session; the fleet is fixed at
	// ext8Sessions sessions per arm, run sequentially on the 40-knob
	// space, so 40 intervals is already 320 durable tuning steps.
	{"ext8", 40, Ext8FleetWarmStart},
	{"ext9", 300, Ext9BlueGreenRollout},
}

// ExperimentIDs lists every reproducible artifact in paper order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Experiment dispatches an experiment by id. iters scales run length
// (0 = the paper's setting); seed controls reproducibility.
func Experiment(id string, iters int, seed int64) (Report, error) {
	for _, e := range experiments {
		if e.id != id {
			continue
		}
		if iters <= 0 {
			iters = e.iters
		}
		return e.run(iters, seed), nil
	}
	return Report{}, &UnknownExperimentError{ID: id, Known: ExperimentIDs()}
}

// UnknownExperimentError reports a dispatch request for an experiment
// id the dispatcher does not know, carrying the ids it does. Callers
// retrieve it with errors.As — the known-id list is structured data
// here, not message text to be string-matched.
type UnknownExperimentError struct {
	ID    string
	Known []string
}

func (e *UnknownExperimentError) Error() string {
	return fmt.Sprintf("unknown experiment %q (known: %s)", e.ID, strings.Join(e.Known, ", "))
}

// --- Figure 1: motivation -------------------------------------------------

// Fig1aWorkloadTrace reproduces Figure 1(a): the real-world workload's
// queries-per-second by statement class over the trace.
func Fig1aWorkloadTrace(seed int64) Report {
	g := workload.NewRealWorld(seed)
	t := NewTable("minute", "select", "insert", "update", "delete", "total_qps")
	for _, i := range sampleIdx(360, 24) {
		s := g.At(i)
		q := s.QPSByClass()
		t.Add(i, q["select"], q["insert"], q["update"], q["delete"], s.ArrivalRate)
	}
	return Report{ID: "fig1a", Title: "Figure 1(a): dynamic real-world workload trace (QPS by class)", Body: t.String()}
}

// Fig1bDataGrowth reproduces Figure 1(b): TPC-C data size over a long run.
func Fig1bDataGrowth(iters int) Report {
	g := workload.NewTPCC(1, true)
	t := NewTable("iteration", "minutes", "data_gb")
	for _, i := range sampleIdx(iters+1, 20) {
		s := g.At(i)
		t.Add(i, i*3, s.DataGB)
	}
	return Report{ID: "fig1b", Title: "Figure 1(b): TPC-C underlying data growth during tuning", Body: t.String()}
}

// Fig1cOfflineExploration reproduces Figure 1(c): BO (OtterTune) and DDPG
// (CDBTune) tuning static TPC-C with unconstrained exploration — many
// recommendations below the DBA default, occasional hangs.
func Fig1cOfflineExploration(iters int, seed int64) Report {
	space := knobs.MySQL57()
	gen := workload.NewTPCC(seed, false)
	feat := NewFeaturizer(seed)
	var b strings.Builder
	summary := NewTable("tuner", "below_dba_pct", "failures", "best_improv_pct")
	var series []*Series
	for _, tn := range []tune.Tuner{baselines.NewBO(space, seed+1), baselines.NewDDPG(space, seed+2)} {
		s := Run(tn, RunConfig{Space: space, Gen: gen, Iters: iters, Seed: seed, Feat: feat})
		series = append(series, s)
		below := 0
		best := math.Inf(-1)
		for i, p := range s.Perf {
			if p < s.Tau[i] {
				below++
			}
			if p > best {
				best = p
			}
		}
		fmt.Fprintf(&b, "%s iterative throughput (txn/sec), sampled:\n", tn.Name())
		it := NewTable("iter", "throughput", "dba_default")
		for _, i := range sampleIdx(iters, 20) {
			it.Add(i, s.Perf[i], s.Tau[i])
		}
		b.WriteString(it.String())
		b.WriteByte('\n')
		summary.Add(tn.Name(), 100*float64(below)/float64(iters), s.Failures, 100*(best/s.Tau[0]-1))
	}
	b.WriteString(summary.String())
	return Report{ID: "fig1c", Title: "Figure 1(c): unconstrained exploration of offline auto-tuners on static TPC-C", Body: b.String(), Series: series}
}

// Fig1dFixedConfigDrift reproduces Figure 1(d): the best configuration
// found offline applied to a drifting workload loses its advantage.
func Fig1dFixedConfigDrift(iters int, seed int64) Report {
	space := knobs.MySQL57()
	// Find a strong config for the original mix with BO offline.
	feat := NewFeaturizer(seed)
	bo := baselines.NewBO(space, seed+1)
	off := Run(bo, RunConfig{Space: space, Gen: workload.NewTPCC(seed, false), Iters: 120, Seed: seed, Feat: feat})
	bestIdx := 0
	for i, p := range off.Perf {
		if p > off.Perf[bestIdx] {
			bestIdx = i
		}
	}
	bestCfg := space.Decode(off.Units[bestIdx])

	gen := workload.NewDriftedTPCC(seed, 0.004)
	fixed := Run(baselines.NewFixed("OfflineBest", bestCfg),
		RunConfig{Space: space, Gen: gen, Iters: iters, Seed: seed, Feat: feat})
	t := NewTable("minute", "improvement_vs_dba_pct")
	for _, i := range sampleIdx(iters, 18) {
		t.Add(i*3, 100*(fixed.Perf[i]/fixed.Tau[i]-1))
	}
	return Report{ID: "fig1d", Title: "Figure 1(d): offline-tuned configuration applied to a drifting workload", Body: t.String()}
}

// --- Figures 3 & 4: model mechanics ----------------------------------------

// Fig3ContextGeneralization reproduces Figure 3: a contextual GP fitted
// at context 0 transfers knowledge to a near context but not a distant
// one; the estimated safe set shrinks with context distance.
func Fig3ContextGeneralization(seed int64) Report {
	m := gp.NewContextual(1, 1)
	f := func(th, c float64) float64 { return 2*math.Sin(3*th+c) - th*th/20 }
	var configs, ctxs [][]float64
	var ys []float64
	for _, th := range []float64{-8, -2, 4} {
		configs = append(configs, []float64{th / 10})
		ctxs = append(ctxs, []float64{0})
		ys = append(ys, f(th/10*10, 0))
	}
	_ = m.Fit(configs, ctxs, ys)
	t := NewTable("context", "safe_set_size", "mean_sigma")
	for _, c := range []float64{0, 0.1, 0.5, 2.0} {
		safe := 0
		sig := 0.0
		n := 0
		for th := -1.0; th <= 1.0; th += 0.05 {
			lo, _ := m.Bounds([]float64{th}, []float64{c}, 2)
			s := m.Sigma([]float64{th}, []float64{c})
			sig += s
			n++
			if lo > 0 {
				safe++
			}
		}
		t.Add(c, safe, sig/float64(n))
	}
	return Report{ID: "fig3", Title: "Figure 3: knowledge transfer across contexts (posterior of the contextual GP)", Body: t.String()}
}

// Fig4ClusterBoundary reproduces Figure 4: DBSCAN clusters contexts and
// an SVM learns the decision boundary for model selection.
func Fig4ClusterBoundary(seed int64) Report {
	feat := NewFeaturizer(seed)
	in := dbsim.New(knobs.MySQL57(), seed)
	gens := []workload.Generator{
		workload.NewTPCC(seed, true), workload.NewTwitter(seed+1, true), workload.NewJOB(seed+2, true),
	}
	var pts [][]float64
	var truth []int
	for gi, g := range gens {
		for i := 0; i < 30; i++ {
			w := g.At(i)
			pts = append(pts, feat.Context(w, in.OptimizerStats(w)))
			truth = append(truth, gi)
		}
	}
	res := cluster.DBSCAN(pts, cluster.SuggestEps(pts, 4), 4)
	res.AssignNearest(pts)
	clf := svm.NewMulticlass(5, svm.RBFKernel(2.0))
	clf.Fit(pts, res.Labels, seed)
	correct := 0
	for i, p := range pts {
		if clf.Predict(p) == res.Labels[i] {
			correct++
		}
	}
	mi := cluster.MutualInfo(truth, res.Labels)
	t := NewTable("metric", "value")
	t.Add("contexts", len(pts))
	t.Add("dbscan_clusters", res.NumClusters)
	t.Add("nmi_vs_true_workloads", mi)
	t.Add("svm_boundary_accuracy_pct", 100*float64(correct)/float64(len(pts)))
	return Report{ID: "fig4", Title: "Figure 4: context clustering (DBSCAN) and SVM space partition", Body: t.String()}
}

// --- Figure 5: dynamic workloads --------------------------------------------

// Fig5Dynamic reproduces one panel of Figure 5: all tuners on a dynamic
// workload, reporting cumulative performance and safety statistics.
func Fig5Dynamic(bench string, iters int, seed int64) Report {
	space := knobs.MySQL57()
	var gen workload.Generator
	switch bench {
	case "twitter":
		gen = workload.NewTwitter(seed, true)
	case "job":
		gen = workload.NewJOB(seed, true)
	default:
		gen = workload.NewTPCC(seed, true)
	}
	feat := NewFeaturizer(seed)
	t := NewTable("tuner", "cumulative", "vs_dba_pct", "unsafe", "failures")
	var dbaCum float64
	series := make([]*Series, 0, 8)
	for _, tn := range StandardTuners(space, feat.Dim(), seed) {
		s := Run(tn, RunConfig{Space: space, Gen: gen, Iters: iters, Seed: seed, Feat: feat})
		series = append(series, s)
		if s.Name == "DBADefault" {
			dbaCum = s.CumFinal()
		}
	}
	for _, s := range series {
		vs := 0.0
		if dbaCum != 0 {
			vs = 100 * (s.CumFinal()/dbaCum - 1)
			if dbaCum < 0 { // OLAP: cumulative is negative exec time
				vs = -vs
			}
		}
		t.Add(s.Name, s.CumFinal(), vs, s.Unsafe, s.Failures)
	}
	title := fmt.Sprintf("Figure 5 (%s): dynamic %s — cumulative performance and safety", bench, bench)
	return Report{ID: "fig5" + bench, Title: title, Body: t.String(), Series: series}
}

// --- Figures 6 & 7 ------------------------------------------------------------

// Fig6OLTPOLAPCycle reproduces Figures 6(a)/7(a): the daily
// transactional-analytical cycle, optimized for 99th-percentile latency.
func Fig6OLTPOLAPCycle(iters int, seed int64) Report {
	space := knobs.MySQL57()
	gen := workload.NewAlternate(workload.NewTPCC(seed, true), workload.NewJOB(seed+1, true), 100)
	feat := NewFeaturizer(seed)
	var b strings.Builder
	t := NewTable("tuner", "cum_neg_p99", "unsafe", "failures")
	var ot *Series
	var series []*Series
	for _, tn := range StandardTuners(space, feat.Dim(), seed) {
		s := Run(tn, RunConfig{Space: space, Gen: gen, Iters: iters, Seed: seed, Feat: feat, Objective: NegP99})
		t.Add(s.Name, s.CumFinal(), s.Unsafe, s.Failures)
		series = append(series, s)
		if s.Name == "OnlineTune" {
			ot = s
		}
	}
	b.WriteString(t.String())
	if ot != nil {
		b.WriteString("\nOnlineTune iterative p99 (ms) across phase switches:\n")
		it := NewTable("iter", "phase", "p99_ms", "default_p99_ms")
		for _, i := range sampleIdx(iters, 20) {
			phase := "TPC-C"
			if (i/100)%2 == 1 {
				phase = "JOB"
			}
			it.Add(i, phase, -ot.Perf[i], -ot.Tau[i])
		}
		b.WriteString(it.String())
	}
	return Report{ID: "fig6", Title: "Figures 6(a)/7(a): transactional-analytical cycle (99th-percentile latency)", Body: b.String(), Series: series}
}

// Fig7RealWorkload reproduces Figures 6(b)/7(b): the production trace.
func Fig7RealWorkload(iters int, seed int64) Report {
	space := knobs.MySQL57()
	gen := workload.NewRealWorld(seed)
	feat := NewFeaturizer(seed)
	t := NewTable("tuner", "cumulative_txn", "vs_dba_pct", "unsafe", "failures")
	var dba float64
	var series []*Series
	for _, tn := range StandardTuners(space, feat.Dim(), seed) {
		s := Run(tn, RunConfig{Space: space, Gen: gen, Iters: iters, Seed: seed, Feat: feat})
		series = append(series, s)
		if s.Name == "DBADefault" {
			dba = s.CumFinal()
		}
	}
	for _, s := range series {
		t.Add(s.Name, s.CumFinal(), 100*(s.CumFinal()/dba-1), s.Unsafe, s.Failures)
	}
	return Report{ID: "fig7", Title: "Figures 6(b)/7(b): real-world workload", Body: t.String(), Series: series}
}

// Fig8Overhead reproduces Figure 8: per-iteration tuner computation time
// on JOB — BO's grows with observations, OnlineTune's stays bounded by
// the clustering cap.
func Fig8Overhead(iters int, seed int64) Report {
	space := knobs.MySQL57()
	gen := workload.NewJOB(seed, true)
	feat := NewFeaturizer(seed)
	tuners := []tune.Tuner{
		tune.NewOnlineTuner(space, feat.Dim(), space.DBADefault(), seed, tune.DefaultTunerOptions()),
		baselines.NewBO(space, seed+1),
		baselines.NewDDPG(space, seed+2),
		baselines.NewResTune(space, seed+3),
		baselines.NewQTune(space, feat.Dim(), seed+4),
		baselines.NewMysqlTuner(space),
	}
	t := NewTable("tuner", "iter50_ms", "iter_mid_ms", "iter_last_ms", "max_ms")
	var series []*Series
	for _, tn := range tuners {
		s := Run(tn, RunConfig{Space: space, Gen: gen, Iters: iters, Seed: seed, Feat: feat})
		series = append(series, s)
		total := make([]float64, iters)
		maxMs := 0.0
		for i := range total {
			total[i] = s.ProposeMs[i] + s.FeedbackMs[i]
			if total[i] > maxMs {
				maxMs = total[i]
			}
		}
		probe := func(i int) float64 {
			if i >= iters {
				i = iters - 1
			}
			// Smooth over a window of 10.
			lo := i - 5
			if lo < 0 {
				lo = 0
			}
			hi := i + 5
			if hi > iters {
				hi = iters
			}
			sum := 0.0
			for k := lo; k < hi; k++ {
				sum += total[k]
			}
			return sum / float64(hi-lo)
		}
		t.Add(tn.Name(), probe(50), probe(iters/2), probe(iters-1), maxMs)
	}
	return Report{ID: "fig8", Title: "Figure 8: tuner computation time per iteration (JOB)", Body: t.String(), Series: series}
}
