package main

import (
	"encoding/json"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/featurize"
	"repro/internal/gp"
	"repro/internal/knowledge"
	"repro/internal/mathx"
	"repro/internal/safety"
	"repro/internal/subspace"
	"repro/internal/svm"
	"repro/internal/wal"
	"repro/internal/whitebox"
	"repro/tune"
)

// fastest returns the shortest of reps timings of f, in nanoseconds.
// prep, when non-nil, runs before each timing, outside it.
func fastest(reps int, prep, f func()) float64 {
	best := int64(-1)
	for i := 0; i < reps; i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		if ns := time.Since(t0).Nanoseconds(); best < 0 || ns < best {
			best = ns
		}
	}
	return float64(best)
}

// sessionModels extracts the tuner state a session snapshot embeds: the
// repository size and every cluster model's GP observations.
func sessionModels(snapshot []byte) (obs int, models []core.ModelSnapshot, err error) {
	var doc struct {
		State struct {
			Observations int                  `json:"observations"`
			Models       []core.ModelSnapshot `json:"models"`
		} `json:"state"`
	}
	err = json.Unmarshal(snapshot, &doc)
	return doc.State.Observations, doc.State.Models, err
}

// leafTimings times the leaf layers' public functions on the sizes the
// traced lap's first session reached: its largest cluster model for the
// GP, safety and knowledge calls, its full context history for
// clustering and the SVM. Each figure is the fastest of a few calls.
func leafTimings(l *lap, models []core.ModelSnapshot, recordBytes int) (map[string]float64, error) {
	out := map[string]float64{}
	t := l.tenants[0]
	space, err := tune.OpenSpace(l.sp.space)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(t.cfg.Seed))

	// featurize: the pre-training every NewSession pays, then the
	// session's own context history.
	out["featurize.pretrain_ms"] = fastest(3, nil, func() { featurize.NewPretrained(t.cfg.Seed) }) / 1e6
	feat := featurize.NewPretrained(t.cfg.Seed)
	var ctxs [][]float64
	var ctxNS int64
	for i := 0; i < t.iter; i++ {
		w := t.gen.At(i)
		snap, stats := sessionSnapshot(tune.WorkloadFromSnapshot(w), i), t.primary.OptimizerStats(w)
		t0 := time.Now()
		ctx := feat.ContextInto(nil, snap, stats)
		ctxNS += time.Since(t0).Nanoseconds()
		ctxs = append(ctxs, ctx)
	}
	out["featurize.context_us"] = float64(ctxNS) / 1e3 / float64(t.iter)
	if st := feat.Stats(); st.Hits+st.Misses > 0 {
		out["featurize.cache_hit_frac"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	}

	// gp, safety, subspace, whitebox and knowledge on the largest model.
	var m core.ModelSnapshot
	for _, c := range models {
		if len(c.Units) > len(m.Units) {
			m = c
		}
	}
	if n := len(m.Units); n >= 2 {
		ctx := m.Contexts[n-1]
		cands := make([][]float64, 100)
		for i := range cands {
			cands[i] = make([]float64, space.Dim())
			for d := range cands[i] {
				cands[i][d] = rng.Float64()
			}
		}
		var g *gp.ContextualGP
		fit := func(k int) func() {
			return func() {
				g = gp.NewContextual(space.Dim(), featurize.ContextDim)
				g.Fit(m.Units[:k], m.Contexts[:k], m.Perfs[:k])
			}
		}
		out["gp.fit_ms"] = fastest(3, nil, fit(n)) / 1e6
		out["gp.append_us"] = fastest(5, fit(n-1), func() { g.Append(m.Units[n-1], ctx, m.Perfs[n-1]) }) / 1e3
		out["gp.hyperopt_ms"] = fastest(2, fit(n), func() { g.OptimizeHyperparams(60) }) / 1e6
		fit(n)()
		out["gp.predict_all_us"] = fastest(10, nil, func() { g.PredictAll(cands, ctx) }) / 1e3
		tau := mathx.Quantile(m.Perfs, 0.5)
		out["safety.assess_us"] = fastest(10, nil, func() { safety.Assess(g, ctx, cands, 2.5, tau) }) / 1e3

		region := subspace.NewAdapter(space.Dim(), t.cfg.Seed).Adapt(m.BestUnit, false)
		out["subspace.candidates_us"] = fastest(10, nil, func() { region.Candidates(len(cands), rng) }) / 1e3

		eng := whitebox.NewEngineFor(space.Engine)
		env := whitebox.Env{HW: t.primary.HW, Load: t.gen.At(t.iter)}
		cfgs := make([]tune.KnobConfig, len(cands))
		for i, c := range cands {
			cfgs[i] = space.Decode(c)
		}
		out["whitebox.check_us"] = fastest(10, nil, func() {
			for _, c := range cfgs {
				eng.Check(c, env)
			}
		}) / 1e3 / float64(len(cfgs))

		store := knowledge.NewStore(knowledge.DefaultParams())
		for _, m := range models {
			for i, u := range m.Units {
				store.Contribute(knowledge.Contribution{
					Engine: string(space.Engine.OrMySQL()), Space: l.sp.space, Context: m.Contexts[i],
					Config: knowledge.SafeConfig{Unit: u, Perf: m.Perfs[i], Tau: tau},
				})
			}
		}
		out["knowledge.query_us"] = fastest(10, nil, func() {
			for i := 0; i < 100; i++ {
				store.Query(string(space.Engine.OrMySQL()), l.sp.space, ctx)
			}
		}) / 1e3 / 100
	}

	// cluster and svm on the full context history: what a re-cluster
	// check at this age costs.
	if n := len(ctxs); n >= 10 {
		var dm *cluster.DistMatrix
		older := func() { dm = cluster.NewDistMatrix(ctxs[:n-n/10]) }
		out["cluster.extend_us"] = fastest(3, older, func() { dm.Extend(ctxs) }) / 1e3
		out["cluster.kdistance_ms"] = fastest(3, nil, func() { dm.KDistance(4) }) / 1e6
		eps := dm.SuggestEps(4)
		var res cluster.DBSCANResult
		out["cluster.dbscan_ms"] = fastest(3, nil, func() { res = dm.DBSCAN(eps, 4) }) / 1e6
		dm.AssignNearest(&res)
		out["svm.fit_ms"] = fastest(2, nil, func() {
			svm.NewMulticlass(5, svm.RBFKernel(2.0)).Fit(ctxs, res.Labels, t.cfg.Seed)
		}) / 1e6
	}

	// wal: append plus commit of a record of the workload's mean size.
	lg, _, err := wal.Open(filepath.Join(l.root, "leaf.wal"), wal.Options{NoFsync: l.sp.mgr.NoFsync})
	if err != nil {
		return nil, err
	}
	payload := make([]byte, recordBytes)
	var werr error
	out["wal.append_commit_us"] = fastest(3, nil, func() {
		for i := 0; i < 200 && werr == nil; i++ {
			if werr = lg.Append(payload); werr == nil {
				werr = lg.Commit()
			}
		}
	}) / 1e3 / 200
	if cerr := lg.Close(); werr == nil {
		werr = cerr
	}
	return out, werr
}
