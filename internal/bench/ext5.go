package bench

import (
	"fmt"

	"repro/internal/rollout"
)

// Ext5CanaryRollout evaluates the staged canary rollout against direct
// apply on a drifting TPC-C workload (the scenario where an online
// tuner must keep exploring and therefore keeps risking the primary).
// Both arms run the identical OnlineTune configuration through
// runRolloutArm; the canary arm routes every new candidate through a
// shadow dbsim replica and a comparison window, the direct arm applies
// candidates straight to the primary — the ablation switch.
//
// Unlike the noisy per-interval safety counters of the other
// experiments, the headline metric here is ground truth: an interval
// counts as a regression applied to the primary iff the NOISE-FREE
// evaluation of the applied configuration falls below the noise-free
// safety threshold τ by more than the rollout's regression threshold.
// That is exactly the guarantee the rollout subsystem claims to make
// operational: such configurations must never reach the primary.
func Ext5CanaryRollout(iters int, seed int64) Report {
	feat := NewFeaturizer(seed)
	canary := runRolloutArm("OnlineTune-Canary", &rollout.Policy{Window: 5}, feat, iters, seed)
	direct := runRolloutArm("OnlineTune-Direct", nil, feat, iters, seed)
	st := canary.status
	// Mean intervals from a candidate's first paired observation to its
	// promotion.
	promoteLatMu := 0.0
	if lat := st.Metrics.PromoteLatency; lat.Count > 0 {
		promoteLatMu = float64(lat.Sum) / float64(lat.Count)
	}

	t := NewTable("arm", "cumulative_txn", "regressing_configs_applied", "regressing_intervals",
		"failures", "promotions", "rollbacks", "canary_iters", "mean_iters_to_promote")
	t.Add(canary.series.Name, canary.series.CumFinal(), canary.regressions, canary.regIntervals,
		canary.series.Failures, st.Promotions, st.Rollbacks, canary.paired, promoteLatMu)
	t.Add(direct.series.Name, direct.series.CumFinal(), direct.regressions, direct.regIntervals,
		direct.series.Failures, 0, 0, 0, 0.0)

	var verdict string
	switch {
	case canary.regressions > 0:
		verdict = fmt.Sprintf(
			"REGRESSION: the canary path let %d truly regressing configuration(s) reach the primary — the staged rollout guarantee does not hold.",
			canary.regressions)
	case direct.regressions > 0:
		verdict = fmt.Sprintf(
			"The canary path applied ZERO regressing configurations to the primary while direct apply let %d through (%d candidate(s) rolled back, %d promoted after a mean %.1f-interval window; drift exposure %d vs %d regressing intervals) — the staged rollout turns pre-apply safety prediction into an operational guarantee at %.1f%% of cumulative direct-apply throughput.",
			direct.regressions, st.Rollbacks, st.Promotions, promoteLatMu,
			canary.regIntervals, direct.regIntervals,
			100*canary.series.CumFinal()/direct.series.CumFinal())
	default:
		verdict = fmt.Sprintf(
			"Neither arm applied a truly regressing configuration at this scale (%d iters); the canary arm rolled back %d candidate(s) and promoted %d. Run at the default 300 iterations for the full drift scenario.",
			iters, st.Rollbacks, st.Promotions)
	}
	return Report{
		ID:     "ext5",
		Title:  "Extension: staged canary rollout vs direct apply (drifted TPC-C)",
		Body:   t.String() + "\n" + verdict + "\n",
		Series: []*Series{canary.series, direct.series},
	}
}
