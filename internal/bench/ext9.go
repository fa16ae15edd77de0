package bench

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/baselines"
	"repro/internal/dbsim"
	"repro/internal/featurize"
	"repro/internal/knobs"
	"repro/internal/rollout"
	"repro/internal/workload"
	"repro/tune"
)

// ext9DowntimeBound is the pinned operational bound on per-switchover
// downtime: a blue/green switchover may dip below τ for at most the
// configured switchover window (the cache-cold interval on the newly
// serving replica), never longer.
const ext9DowntimeBound = rollout.DefaultSwitchoverIntervals

// ext9CumTolerance is the equivalence band for the cumulative-vs-canary
// gate. Switchover hold intervals pause tuning for one interval each,
// shifting WHEN the two arms discover the same candidates by a few
// intervals; that timing jitter moves the 300-interval cumulative by
// ±0.1–0.3% with a seed-dependent sign. A real throughput regression —
// an unmetered cold replica serving traffic, or a regressing config
// promoted — costs multiples of this band.
const ext9CumTolerance = 0.005

// Ext9BlueGreenRollout evaluates the blue/green live-replica rollout
// against the staged canary and direct apply on the drifted TPC-C
// workload. All arms run the identical OnlineTune configuration; only
// the rollout mode differs. The blue/green arm keeps both replicas
// live — blue serves the last-good configuration while candidates tune
// on green — and promotion triggers an explicit switchover whose cost
// (sub-τ downtime intervals from the cache-cold start, in-flight
// failures, recovery time) is recorded by the controller and reported
// here. The simulator charges the switchover interval the deterministic
// cache-cold penalty, so the downtime metric measures a real dip, not
// an accounting fiction.
//
// As in ext5, the headline safety metric is ground truth: an interval
// counts as a regressing config applied iff a configuration newly
// reached the serving primary while its NOISE-FREE performance (warm,
// without the transient switchover penalty) was below τ−threshold.
func Ext9BlueGreenRollout(iters int, seed int64) Report {
	feat := NewFeaturizer(seed)
	// PromoteMargin = the regression threshold: the zero-regression gate
	// below demands that a config clear τ on the staged replica by at
	// least the margin a serving config may dip below it, so borderline
	// configs cannot ride a favorable noise draw onto the primary.
	staged := func(mode string) *rollout.Policy {
		return &rollout.Policy{Mode: mode, Window: 5, PromoteMargin: rollout.DefaultThreshold}
	}
	bg := runRolloutArm("OnlineTune-BlueGreen", staged(rollout.ModeBlueGreen), feat, iters, seed)
	canary := runRolloutArm("OnlineTune-Canary", staged(rollout.ModeCanary), feat, iters, seed)
	direct := runRolloutArm("OnlineTune-Direct", nil, feat, iters, seed)
	bgm := bg.status.Metrics

	t := NewTable("arm", "cumulative_txn", "regressing_configs_applied", "regressing_intervals",
		"failures", "promotions", "rollbacks", "chain_rollbacks", "switchovers",
		"downtime_sum", "downtime_max", "in_flight_failures")
	t.Add(bg.series.Name, bg.series.CumFinal(), bg.regressions, bg.regIntervals, bg.series.Failures,
		bg.status.Promotions, bg.status.Rollbacks, bgm.ChainRollbacks, bgm.Switchovers,
		bgm.SwitchoverDowntime.Sum, bgm.SwitchoverDowntime.Max, bgm.InFlightFailures)
	t.Add(canary.series.Name, canary.series.CumFinal(), canary.regressions, canary.regIntervals,
		canary.series.Failures, canary.status.Promotions, canary.status.Rollbacks,
		canary.status.Metrics.ChainRollbacks, 0, 0, 0, 0)
	t.Add(direct.series.Name, direct.series.CumFinal(), direct.regressions, direct.regIntervals,
		direct.series.Failures, 0, 0, 0, 0, 0, 0, 0)

	var verdict string
	switch {
	case bg.regressions > 0:
		verdict = fmt.Sprintf(
			"REGRESSION: the blue/green path let %d truly regressing configuration(s) reach the serving primary.",
			bg.regressions)
	case bgm.SwitchoverDowntime.Max > ext9DowntimeBound:
		verdict = fmt.Sprintf(
			"REGRESSION: a switchover dipped below τ for %d interval(s), over the pinned bound of %d.",
			bgm.SwitchoverDowntime.Max, ext9DowntimeBound)
	case bg.series.CumFinal()+bg.coldCost < canary.series.CumFinal()*(1-ext9CumTolerance):
		verdict = fmt.Sprintf(
			"REGRESSION: blue/green cumulative throughput %.0f (plus the %.0f txn metered switchover cost) fell below the canary arm's %.0f beyond the %.1f%% equivalence band — beyond the explicitly bounded cold starts, the live second replica must never cost serving throughput.",
			bg.series.CumFinal(), bg.coldCost, canary.series.CumFinal(), 100*ext9CumTolerance)
	default:
		verdict = fmt.Sprintf(
			"Blue/green applied ZERO regressing configurations to the serving primary, every switchover stayed within the %d-interval downtime bound (%d switchover(s), %d total downtime interval(s), %d in-flight failure(s), %.0f txn metered cold-start cost), and cumulative throughput net of that metered cost matched canary (%.1f%% gross) / reached %.1f%% of direct apply. %d promotion(s), %d rollback(s) of which %d stepped back through the previous-good chain.",
			ext9DowntimeBound, bgm.Switchovers, bgm.SwitchoverDowntime.Sum, bgm.InFlightFailures, bg.coldCost,
			100*bg.series.CumFinal()/canary.series.CumFinal(),
			100*bg.series.CumFinal()/direct.series.CumFinal(),
			bg.status.Promotions, bg.status.Rollbacks, bgm.ChainRollbacks)
	}
	return Report{
		ID:     "ext9",
		Title:  "Extension: blue/green live-replica rollout vs canary vs direct apply (drifted TPC-C)",
		Body:   t.String() + "\n" + verdict + "\n",
		Series: []*Series{bg.series, canary.series, direct.series},
	}
}

// rolloutArm is what one arm of a staged-rollout experiment measured.
type rolloutArm struct {
	series *Series
	// regressions counts regressing CONFIGS applied: intervals where a
	// configuration newly reached the primary while its true performance
	// was below τ−threshold.
	regressions int
	// regIntervals counts every interval the primary truly ran below
	// τ−threshold — including a once-healthy configuration decaying
	// under drift (bounded by the drift rollback, never preventable by
	// any apply-time discipline).
	regIntervals int
	// coldCost is the metered throughput cost of cache-cold switchover
	// intervals; paired counts intervals fed a primary/staged pair.
	coldCost float64
	paired   int
	// status is the controller's final state, nil under direct apply.
	status *rollout.Status
}

// runRolloutArm drives one OnlineTune arm under policy (nil is direct
// apply) over drifted TPC-C on a primary and a staged dbsim
// replica. Short 60-second measurement intervals (§7.3.3's noisy
// setting): per-interval noise is ~1.7x the default, which is what makes
// pre-apply prediction alone fallible — and what the comparison window
// averages away. Ground-truth regression counting is noise-free either
// way.
func runRolloutArm(name string, policy *rollout.Policy, feat *featurize.Featurizer, iters int, seed int64) rolloutArm {
	const intervalSec = 60
	space := knobs.CaseStudy5()
	in := dbsim.New(space, seed)
	staged := dbsim.New(space, seed+1000)
	gen := workload.NewDriftedTPCC(seed, 0.004)
	opts := tune.DefaultTunerOptions()
	opts.Rollout = policy
	tn := tune.NewOnlineTunerNamed(name, space, feat.Dim(), space.DBADefault(), seed, opts)

	ar := rolloutArm{series: &Series{Name: name}}
	s := ar.series
	var lastMetrics dbsim.InternalMetrics
	var ctx []float64
	var prevUnit []float64
	cum := 0.0
	for i := 0; i < iters; i++ {
		w := gen.At(i)
		ctx = feat.ContextInto(ctx, w, in.OptimizerStats(w))
		tauRes := in.DBAResult(w)
		tau := tauRes.Objective(false)
		env := baselines.TuneEnv{
			Iter: i, Snapshot: w, Ctx: ctx, Metrics: lastMetrics,
			Tau: tau, OLAP: false, HW: in.HW,
		}

		start := time.Now()
		cfg := tn.Propose(env)
		proposeMs := float64(time.Since(start).Microseconds()) / 1000
		rec := tn.Last() // never nil: Propose always records a recommendation

		// The switchover interval runs the newly serving replica
		// cache-cold; every other interval is warm. Canary mode never
		// enters the phase.
		evalOpt := dbsim.EvalOptions{IntervalSec: intervalSec}
		if rec.RolloutPhase == string(rollout.PhaseSwitchover) {
			evalOpt.SwitchoverColdSec = dbsim.DefaultSwitchoverColdSec
		}
		res := in.Eval(cfg, w, evalOpt)
		perf := res.Objective(false)
		if evalOpt.SwitchoverColdSec > 0 {
			// Meter the cold start's throughput cost exactly: the same
			// interval evaluated warm, minus what the cold replica
			// actually served. The cum-vs-canary verdict nets this
			// out — the cold dip itself is capped by the downtime
			// bound, and the canary arm's instant, free config swap
			// has no counterpart cost to compare it against.
			warm := in.Eval(cfg, w, dbsim.EvalOptions{IntervalSec: intervalSec})
			ar.coldCost += warm.Objective(false) - perf
		}
		// Ground truth judges the CONFIGURATION, not the transient
		// cold start: noise-free and warm.
		trueRes := in.Eval(cfg, w, dbsim.EvalOptions{NoNoise: true})
		trueApplied := trueRes.Objective(false)
		badNow := res.Failed || trueApplied < tau-rollout.DefaultThreshold*math.Abs(tau)
		if badNow {
			ar.regIntervals++
		}
		if badNow && !slices.Equal(prevUnit, rec.Unit) { // nil before the first interval
			ar.regressions++
		}
		prevUnit = rec.Unit

		start = time.Now()
		if tn.T.CanaryActive() {
			sres := staged.Eval(rec.ShadowConfig, w, dbsim.EvalOptions{IntervalSec: intervalSec})
			tn.FeedbackStaged(env, res, sres.Objective(false), sres.Failed)
			ar.paired++
		} else {
			tn.Feedback(env, cfg, res)
		}
		feedbackMs := float64(time.Since(start).Microseconds()) / 1000

		lastMetrics = res.Metrics
		cum += perf
		s.Perf = append(s.Perf, perf)
		s.Tau = append(s.Tau, tau)
		s.Cum = append(s.Cum, cum)
		s.ProposeMs = append(s.ProposeMs, proposeMs)
		s.FeedbackMs = append(s.FeedbackMs, feedbackMs)
		s.Units = append(s.Units, rec.Unit)
		if res.Failed {
			s.Failures++
		}
		s.SafetySetSizes = append(s.SafetySetSizes, rec.SafetySetSize)
		s.RegionKinds = append(s.RegionKinds, rec.RegionKind)
		s.ModelIndices = append(s.ModelIndices, rec.ModelIndex)
	}
	// The ground-truth regression count doubles as the artifact's unsafe
	// metric, so the golden bench/baseline files pin it.
	s.Unsafe = ar.regressions
	ar.status = tn.T.RolloutStatus()
	return ar
}
