package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/knowledge"
	"repro/internal/rollout"
	"repro/internal/workload"
	"repro/tune"
)

const (
	// ext8Sessions is the fleet size: session 0 is the donor that always
	// starts cold; the gate compares how fast sessions 1..3 reach a
	// usable safe set with and without the fleet knowledge base.
	ext8Sessions = 4
	// ext8Window is the canary comparison window for both arms — the
	// rollout must be on for warm-applied transfers to be staged at all,
	// so the cold arm runs the identical rollout to isolate the store.
	ext8Window = 3
	// ext8SafetyMargin doubles the default assessment margin. Under the
	// noisy short intervals a near-default observation can fluke past
	// the default τeff, which lets every cold session assess a nonempty
	// safe set on its very first round and washes out the quantity under
	// test; the stricter margin makes a nonempty safe set require
	// genuinely better-than-default evidence, which is exactly what the
	// fleet store transfers.
	ext8SafetyMargin = 0.05
)

// Ext8FleetWarmStart measures cross-session transfer learning end to
// end through the serving stack: two identical 4-session fleets run
// sequentially on drifted 40-knob MySQL instances (each session its own
// dbsim seed and workload trace), driven suggest→report through a
// Manager. The warm arm's manager enables the fleet knowledge base, so
// each finished session's promotions and safe observations seed the
// next session's safe set, GP hyperparameters and subspace center; the
// cold arm runs the same manager without a store — the ablation switch.
//
// The headline metric is intervals-to-first-VALIDATED-safe
// configuration per session: the first interval whose advice carried a
// nonempty assessed safe set OR that completed a canary promotion
// (assessed rounds don't run while a canary holds the primary, so a
// warm session chaining promotions would otherwise look unsafe while
// actually running validated configs). Censored at iters+1 when a
// session never gets there, summed over the transfer-eligible sessions
// 1..3; session 0 is identical in both arms by construction and serves
// as a determinism check. Safety is ground truth exactly as in ext5:
// an interval counts as a regressing config applied iff a
// configuration newly reached the primary while its NOISE-FREE
// evaluation fell below τ by more than the rollout's regression
// threshold. The gated series is a step — 1 iff warm-start strictly
// reduces the summed first-validated-safe intervals AND applies no
// more regressing configs than the cold arm — because the raw interval
// counts shift with iters/seed while the ordering is the claim under
// test.
func Ext8FleetWarmStart(iters int, seed int64) Report {
	if iters < 2 {
		iters = 2
	}
	warm := ext8RunArm("WarmStart-Fleet", iters, seed, true)
	if warm.err != nil {
		return ext8Failure(warm.err)
	}
	cold := ext8RunArm("Cold-Fleet", iters, seed, false)
	if cold.err != nil {
		return ext8Failure(cold.err)
	}

	warmSum, coldSum := warm.transferSum(), cold.transferSum()
	step := 0.0
	if warmSum < coldSum && warm.regressions <= cold.regressions &&
		warm.failures == 0 && cold.failures == 0 {
		step = 1
	}
	extra := warm.regressions - cold.regressions
	if extra < 0 {
		extra = 0
	}
	gate := &Series{
		Name:     "FleetWarmStart-Gate",
		Perf:     []float64{step},
		Tau:      []float64{1},
		Cum:      []float64{step},
		Unsafe:   extra,
		Failures: warm.failures + cold.failures,
	}

	t := NewTable("arm", "first_safe_s0", "first_safe_s1", "first_safe_s2",
		"first_safe_s3", "sum_s1_s3", "regressing_configs_applied", "promotions",
		"cumulative_txn", "failures")
	for _, ar := range []*ext8Arm{warm, cold} {
		t.Add(ar.series.Name, ar.firstSafe[0], ar.firstSafe[1], ar.firstSafe[2],
			ar.firstSafe[3], ar.transferSum(), ar.regressions, ar.promotions,
			ar.series.CumFinal(), ar.failures)
	}
	var b = t.String()
	if warm.know != nil {
		k := NewTable("fleet_store", "entries", "clusters", "contributions", "queries", "warm_starts", "bytes")
		k.Add("warm_arm", warm.know.Entries, warm.know.Clusters, warm.know.Contributions,
			warm.know.Queries, warm.know.WarmStarts, warm.know.Bytes)
		b += "\n" + k.String()
	}

	var verdict string
	switch {
	case step == 1:
		verdict = fmt.Sprintf(
			"Fleet warm-starting cut the summed intervals-to-first-validated-safe-config for sessions 1..3 from %d to %d (%d contribution(s), %d warm start(s) through the store) with %d vs %d truly regressing configuration(s) applied — transferred configs reach the primary only through the canary window, so the speedup costs no extra unsafe applies.",
			coldSum, warmSum, warm.know.Contributions, warm.know.WarmStarts,
			warm.regressions, cold.regressions)
	case warm.regressions > cold.regressions:
		verdict = fmt.Sprintf(
			"REGRESSION: the warm arm applied %d truly regressing configuration(s) vs the cold arm's %d — a transferred configuration bypassed the safety routing.",
			warm.regressions, cold.regressions)
	default:
		verdict = fmt.Sprintf(
			"Warm-starting did not strictly beat cold start (summed first-validated-safe %d vs %d over sessions 1..3, %d warm start(s) served) — the transfer path is not seeding the safe set.",
			warmSum, coldSum, warm.know.WarmStarts)
	}

	return Report{
		ID:     "ext8",
		Title:  "Extension: fleet knowledge base — cross-session warm-starting vs cold start (drifted MySQL fleet)",
		Body:   b + "\n" + verdict + "\n",
		Series: []*Series{gate, warm.series, cold.series},
	}
}

// ext8Arm is one fleet arm's run record.
type ext8Arm struct {
	series *Series
	// firstSafe[j] is the 1-based interval at which session j first
	// held a validated-safe configuration — a nonempty assessed safe
	// set, or a completed canary promotion; iters+1 when it never did
	// (right-censored).
	firstSafe   []int
	regressions int // ground-truth regressing configs applied (all sessions)
	promotions  int
	failures    int
	know        *knowledge.Stats
	err         error
}

// transferSum sums first-validated-safe intervals over the
// transfer-eligible sessions 1..3 (session 0 always starts against an
// empty store).
func (a *ext8Arm) transferSum() int {
	sum := 0
	for _, v := range a.firstSafe[1:] {
		sum += v
	}
	return sum
}

// ext8RunArm drives ext8Sessions sessions SEQUENTIALLY through one
// manager: session j completes all its intervals before session j+1 is
// created, which is the fleet-transfer scenario (a new instance joining
// after others have tuned), not a concurrently driven fleet.
func ext8RunArm(name string, iters int, seed int64, warm bool) *ext8Arm {
	ar := &ext8Arm{
		series:    &Series{Name: name},
		firstSafe: make([]int, ext8Sessions),
	}
	fail := func(err error) *ext8Arm { ar.err = err; return ar }
	dir, err := os.MkdirTemp("", "ext8-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	m, err := tune.NewManagerOpts(dir, tune.ManagerOptions{NoFsync: true, Knowledge: warm})
	if err != nil {
		return fail(err)
	}
	defer func() { m.Close() }()

	s := ar.series
	cum := 0.0
	for j := 0; j < ext8Sessions; j++ {
		id := fmt.Sprintf("fleet-%d", j)
		// Each session is a distinct instance: own simulator seed, own
		// drift trajectory. The 30-second intervals are §7.3.3's noisy
		// setting — the regime where a cold model needs many
		// observations before anything assesses safe.
		in := dbsim.New(knobs.MySQL57(), seed+int64(j))
		shadow := dbsim.New(knobs.MySQL57(), seed+1000+int64(j))
		gen := workload.NewDriftedTPCC(seed+int64(j), 0.004)
		topts := tune.DefaultTunerOptions()
		topts.SafetyMargin = ext8SafetyMargin
		if _, err := m.Create(id, tune.Config{
			Space: "mysql57", Seed: seed + int64(j),
			Options: &topts,
			Rollout: &tune.RolloutConfig{Window: ext8Window},
		}); err != nil {
			return fail(err)
		}

		ar.firstSafe[j] = iters + 1
		var prevUnit []float64
		for i := 0; i < iters; i++ {
			w := gen.At(i)
			tauRes := in.DBAResult(w)
			tau := tauRes.Objective(false)

			adv, err := m.Suggest(context.Background(), id)
			if err != nil {
				return fail(fmt.Errorf("suggest %s: %w", id, err))
			}
			if adv.SafetySetSize > 0 && ar.firstSafe[j] > iters {
				ar.firstSafe[j] = i + 1
			}
			staged, inCanary := adv.Targets[tune.RoleStaged]

			res := in.Eval(adv.Config, w, dbsim.EvalOptions{IntervalSec: 30})
			perf := res.Objective(false)
			trueRes := in.Eval(adv.Config, w, dbsim.EvalOptions{NoNoise: true})
			trueApplied := trueRes.Objective(false)
			bad := res.Failed || trueApplied < tau-rollout.DefaultThreshold*math.Abs(tau)
			if bad && (prevUnit == nil || !slices.Equal(prevUnit, adv.Unit)) {
				ar.regressions++
			}
			prevUnit = adv.Unit

			o := tune.Outcome{
				Workload:    tune.WorkloadFromSnapshot(w),
				Stats:       in.OptimizerStats(w),
				Metrics:     res.Metrics,
				Performance: perf,
				Baseline:    tau,
				Failed:      res.Failed,
			}
			if inCanary {
				sres := shadow.Eval(staged.Config, w, dbsim.EvalOptions{IntervalSec: 30})
				o.Measurements = map[tune.Role]tune.ReplicaPerf{
					tune.RoleStaged: {Performance: sres.Objective(false), Failed: sres.Failed},
				}
			}
			if _, err := m.Report(id, o); err != nil {
				return fail(fmt.Errorf("report %s: %w", id, err))
			}
			// A completed canary promotion also ends the cold-start era:
			// the session now holds a configuration other than the initial
			// one that was validated safe over a full comparison window —
			// assessed rounds don't run while a canary holds the primary,
			// so promotions are the warm path's first-safe signal.
			if inCanary && ar.firstSafe[j] > iters {
				st, err := m.Rollout(id)
				if err != nil {
					return fail(err)
				}
				if st.Promotions > 0 {
					ar.firstSafe[j] = i + 1
				}
			}

			cum += perf
			s.Perf = append(s.Perf, perf)
			s.Tau = append(s.Tau, tau)
			s.Cum = append(s.Cum, cum)
			s.SafetySetSizes = append(s.SafetySetSizes, adv.SafetySetSize)
			if res.Failed {
				ar.failures++
			}
		}
		st, err := m.Rollout(id)
		if err != nil {
			return fail(err)
		}
		ar.promotions += st.Promotions
	}
	s.Unsafe = ar.regressions
	s.Failures = ar.failures
	if st, ok := m.KnowledgeStats(); ok {
		ar.know = &st
	} else {
		ar.know = &knowledge.Stats{}
	}
	return ar
}

// ext8Failure reports a harness-level failure as a failing artifact
// rather than panicking the runner.
func ext8Failure(err error) Report {
	s := &Series{Name: "FleetWarmStart-Gate", Failures: 1}
	return Report{
		ID:     "ext8",
		Title:  "Extension: fleet knowledge base — cross-session warm-starting vs cold start (drifted MySQL fleet)",
		Body:   fmt.Sprintf("harness failure: %v\n", err),
		Series: []*Series{s},
	}
}
