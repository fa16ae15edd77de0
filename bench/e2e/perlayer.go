package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/mathx"
	"repro/tune"
)

// tracedLap runs one more lap with every op executed in lock-step on the
// peeled stacks, writes the spans out, times the leaf layers and returns
// the per-layer metrics. untraced are the run's ordinary laps: the
// traced lap must agree with them on everything counted, and its own
// stack's slowdown against them is the tracing overhead.
func tracedLap(sp spec, seed int64, root string, untraced []lapResult, out string) ([]metric, error) {
	tr := newTracer(sp.layout())
	l := newLap(sp, seed, root, tr)
	if err := l.run(); err != nil {
		return nil, err
	}
	if l.res.Exact != untraced[0].Exact {
		return nil, fmt.Errorf("traced lap diverged from the untraced laps:\n  untraced: %+v\n  traced:   %+v", untraced[0].Exact, l.res.Exact)
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(out, "trace-"+sp.name+".json"), data, 0o644); err != nil {
		return nil, err
	}

	obs, models, err := sessionModels(l.firstSnapshot)
	if err != nil {
		return nil, err
	}
	x := l.res.Exact
	recordBytes := 1
	if x.WALRecords > 0 {
		recordBytes = int(x.WALTailBytes) / x.WALRecords
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	leaf, err := leafTimings(l, models, recordBytes)
	if err != nil {
		return nil, fmt.Errorf("leaf timings: %w", err)
	}
	leaf["session.restore_ms"] = fastest(1, nil, func() { _, err = tune.Restore(l.firstSnapshot) }) / 1e6
	if err != nil {
		return nil, fmt.Errorf("restoring the first session's snapshot: %w", err)
	}
	leaf["core.models"] = float64(len(models))
	leaf["core.repo_obs"] = float64(obs)
	leaf["wal.record_bytes_mean"] = float64(recordBytes)
	return perLayer(sp, l.res, tr, untraced, leaf), nil
}

// perLayer assembles the per-layer metrics of a traced run. Layers are
// the repo's modules; a peeled layer's self time is the difference
// between two neighbouring stacks' totals over the measured region, so
// the self times and the innermost stack's children sum to the
// workload's own total, with the remainder reported as unattributed.
func perLayer(sp spec, traced lapResult, tr *tracer, untraced []lapResult, leaf map[string]float64) []metric {
	lay := sp.layout()
	n := float64(lay.measured)
	x := traced.Exact
	perInterval := func(ns int64) float64 { return ms(ns) / n }

	// self is outer minus inner over the measured region when both stacks
	// ran; a stack the workload does not peel to is absent.
	self := func(outer, inner string) float64 {
		o, ok1 := tr.busy[outer]
		i, ok2 := tr.busy[inner]
		if !ok1 || !ok2 {
			return 0
		}
		return perInterval(o - i)
	}
	own := tr.busy[tr.layers[0]]

	var mgr []int64 // the manager stack's ops
	for k, name := range tr.layers {
		if name == "manager" {
			mgr = traced.NS[k]
		}
	}
	var suggestNS, reportNS, createNS int64
	for t := 0; t < lay.measured; t++ {
		suggestNS += mgr[lay.suggest(t)]
		reportNS += mgr[lay.report(t)]
	}
	for j := 0; j < lay.sessions; j++ {
		createNS += mgr[lay.create(j)]
	}
	iv := intervalMS(lay, mgr)

	// Hydrations seen inside the measured region; a fully resident
	// workload hydrates only at recovery.
	hyd := tr.hydrateNS
	if len(hyd) == 0 {
		hyd = traced.NS[0][lay.get(0):]
	}
	hydMS := make([]float64, len(hyd))
	for i, ns := range hyd {
		hydMS[i] = ms(ns)
	}

	core := func(stage string) float64 { return perInterval(tr.busy["core."+stage]) }
	attributed := self("server", "manager") + self("manager", "manager-nopersist") +
		self("manager-nopersist", "session") + self("session", "tuner") +
		perInterval(tr.busy["featurize.context"]) +
		core("model_select") + core("subspace_adapt") + core("safety_assess") +
		core("candidate_select") + core("model_update")

	// From the untraced laps: the harness's own cost and honesty.
	opMin := perOpMin(ownLaps(untraced))
	measuredMin := sumNS(opMin[lay.warmEnd():lay.reopen()])
	var slowest int64
	cpuNS, simNS := untraced[0].CPUNS, untraced[0].SimNS
	for _, u := range untraced {
		slowest = max(slowest, sumNS(u.NS[0][lay.warmEnd():lay.reopen()]))
		cpuNS, simNS = min(cpuNS, u.CPUNS), min(simNS, u.SimNS)
	}

	return []metric{
		{"server.self_ms_per_interval", self("server", "manager"), "ms"},
		{"server.wire_bytes_per_interval", float64(x.WireBytes) / n, "B"},

		{"manager.persist_ms_per_interval", self("manager", "manager-nopersist"), "ms"},
		{"manager.gate_ms_per_interval", self("manager-nopersist", "session"), "ms"},
		{"manager.suggest_mean_ms", perInterval(suggestNS), "ms"},
		{"manager.report_mean_ms", perInterval(reportNS), "ms"},
		{"manager.interval_p99_ms", mathx.Quantile(iv, 0.99), "ms"},
		{"manager.interval_max_ms", mathx.Max(iv), "ms"},
		{"manager.create_ms", ms(createNS) / float64(lay.sessions), "ms"},
		{"manager.hydrate_p50_ms", mathx.Quantile(hydMS, 0.5), "ms"},
		{"manager.hydrate_max_ms", mathx.Max(hydMS), "ms"},
		{"manager.hydrations", float64(x.Hydrations), "count"},
		{"manager.evictions", float64(x.Evictions), "count"},
		{"manager.compactions", float64(x.Compactions), "count"},

		{"wal.append_commit_us", leaf["wal.append_commit_us"], "us"},
		{"wal.record_bytes_mean", leaf["wal.record_bytes_mean"], "B"},
		{"wal.open_scan_ms", ms(traced.WALScanNS), "ms"},
		{"wal.group_commits", float64(x.GroupCommits), "count"},

		{"session.self_ms_per_interval", self("session", "tuner"), "ms"},
		{"session.events", float64(x.Events), "count"},
		{"session.snapshot_kb", float64(x.SnapshotBytes) / 1024 / float64(lay.sessions), "KB"},
		{"session.restore_ms", leaf["session.restore_ms"], "ms"},

		{"featurize.pretrain_ms", leaf["featurize.pretrain_ms"], "ms"},
		{"featurize.context_us", leaf["featurize.context_us"], "us"},
		{"featurize.cache_hit_frac", leaf["featurize.cache_hit_frac"], "ratio"},

		{"core.model_select_ms", core("model_select"), "ms"},
		{"core.subspace_adapt_ms", core("subspace_adapt"), "ms"},
		{"core.safety_assess_ms", core("safety_assess"), "ms"},
		{"core.candidate_select_ms", core("candidate_select"), "ms"},
		{"core.model_update_ms", core("model_update"), "ms"},
		{"core.models", leaf["core.models"], "count"},
		{"core.repo_obs", leaf["core.repo_obs"], "count"},

		{"gp.append_us", leaf["gp.append_us"], "us"},
		{"gp.predict_all_us", leaf["gp.predict_all_us"], "us"},
		{"gp.hyperopt_ms", leaf["gp.hyperopt_ms"], "ms"},
		{"gp.fit_ms", leaf["gp.fit_ms"], "ms"},

		{"cluster.extend_us", leaf["cluster.extend_us"], "us"},
		{"cluster.kdistance_ms", leaf["cluster.kdistance_ms"], "ms"},
		{"cluster.dbscan_ms", leaf["cluster.dbscan_ms"], "ms"},
		{"svm.fit_ms", leaf["svm.fit_ms"], "ms"},

		{"safety.assess_us", leaf["safety.assess_us"], "us"},
		{"subspace.candidates_us", leaf["subspace.candidates_us"], "us"},
		{"whitebox.check_us", leaf["whitebox.check_us"], "us"},

		{"rollout.promotions", float64(x.Promotions), "count"},
		{"rollout.rollbacks", float64(x.Rollbacks), "count"},
		{"rollout.switchovers", float64(x.Switchovers), "count"},
		{"knowledge.entries", float64(x.KnowledgeEntries), "count"},
		{"knowledge.warm_starts", float64(x.WarmStarts), "count"},
		{"knowledge.query_us", leaf["knowledge.query_us"], "us"},

		{"runtime.alloc_kb_per_interval", float64(untraced[0].AllocBytes) / 1024 / n, "KB"},
		{"runtime.mallocs_per_interval", float64(untraced[0].Mallocs) / n, "count"},
		{"runtime.gc_cycles", float64(untraced[0].GCCycles), "count"},
		{"runtime.cpu_ms_per_interval", perInterval(cpuNS), "ms"},

		{"bench.sim_ms_per_interval", perInterval(simNS), "ms"},
		{"bench.unattributed_ms_per_interval", perInterval(own) - attributed, "ms"},
		{"bench.trace_overhead_frac", float64(own)/float64(measuredMin) - 1, "ratio"},
		{"bench.lap_spread_frac", float64(slowest)/float64(measuredMin) - 1, "ratio"},
	}
}
