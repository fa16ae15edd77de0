package core

import (
	"repro/internal/gp"
	"repro/internal/knowledge"
	"repro/internal/mathx"
	"repro/internal/whitebox"
)

// Knowledge is the tuner's hook into a fleet knowledge base and into
// the log of what each of its operations derived. Fleet reports whether
// the tuner queries the fleet store (when a cluster model is cold, and
// again after a drift rollback) and contributes every safe observation
// and canary promotion; implementations stamp the engine and space
// identity, the tuner only supplies the context. Refit, Recluster and
// Decide wrap each hyperparameter refit point, each re-cluster check and
// each decided recommendation (an assessment or a probe), so an owner
// that logs an operation's derivations with it — the advice its queries
// returned, the hyperparameters a refit installed, whether a check
// adopted a new clustering, what an assessment or a probe decided — can
// hand them back when it replays the log, and the tuner installs what
// the logged operation derived instead of recomputing it. Calls happen
// under the tuner mutex and must not call back into the tuner.
//
// Transferred configurations are advisory, never trusted blindly: they
// enter the regular candidate pool where safety.Assess and the white-box
// rules judge them like any locally generated candidate, and the only
// path by which one can reach the primary ahead of an assessed round is
// the staged canary rollout, which measures it on the shadow replica
// first.
type Knowledge interface {
	// Fleet reports whether a fleet store backs Query and Contribute.
	Fleet() bool
	Query(ctx []float64) *knowledge.Advice
	Contribute(ctx []float64, cfg knowledge.SafeConfig, hyper []float64)
	// Refit runs one refit point. Live it calls fit, which optimizes the
	// model's hyperparameters and returns what it installed (nil when it
	// changed nothing), and returns nil; in a replay it returns the
	// logged refit without calling fit, for the tuner to install.
	Refit(fit func() *gp.Refit) *gp.Refit
	// Recluster runs one re-cluster check: live it calls check, which
	// reports whether the check adopted a new clustering; in a replay it
	// calls check only where the logged check adopted one.
	Recluster(check func() bool)
	// Decide runs one decided recommendation, an assessment or a probe's
	// recenter: live it calls decide with nil, which computes the
	// decision and returns it for the log; in a replay it calls decide
	// with the logged decision, which installs it and returns nil if it
	// does not fit the tuner's state, or with nil where the log holds
	// none, which decides live.
	Decide(decide func(logged *Decision) *Decision)
}

// fleet returns the knowledge hook when it reaches a fleet store.
func (o *OnlineTune) fleet() Knowledge {
	if k := o.Opts.Knowledge; k != nil && k.Fleet() {
		return k
	}
	return nil
}

// applyAdvice folds fleet advice into a cluster model: transferred
// configurations join the model's pending-transfer pool (quantized,
// dimension-checked, already-evaluated ones dropped), and on a cold
// model the fleet-median GP hyperparameters seed the kernel and the
// best transferred configuration becomes the subspace warm center.
// Consumes no randomness, so replayed sessions stay deterministic.
func (o *OnlineTune) applyAdvice(m *model, adv *knowledge.Advice, cold bool) {
	for _, sc := range adv.Configs {
		if len(sc.Unit) != o.Space.Dim() {
			continue
		}
		u := o.Space.Quantize(mathx.VecClone(sc.Unit))
		if m.evaluated[key(u)] {
			continue
		}
		dup := false
		for _, t := range m.Transfer {
			if key(t) == key(u) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		m.Transfer = append(m.Transfer, u)
		if cold && (m.WarmCenter == nil || m.evaluated[key(m.WarmCenter)]) {
			// Advice configs arrive best-first (promoted, then score). A
			// warm center the model has since measured (e.g. one picked by
			// the contextless first query and rolled back) yields to a
			// fresh transfer.
			m.WarmCenter = mathx.VecClone(u)
		}
	}
	if len(adv.Hyper) > 0 && !m.HyperTuned {
		// Fleet-median hyperparameters replace the generic priors until
		// the model optimizes its own — a model that already ran
		// hyperopt keeps what it fit.
		_ = m.gp.SetHyperparams(adv.Hyper)
	}
}

// warmQueryMaxObs bounds how late a cluster model may still fire its
// fleet warm-start query: with more observations than this, local data
// outweighs anything a transfer could seed.
const warmQueryMaxObs = 3

// warmApply returns the best not-yet-evaluated transferred configuration
// to propose (the warm center first, then the pending pool in arrival
// order), or nil to stay at the model's own best. A transfer is only
// proposed when the canary rollout is enabled — finishRecommend then
// stages it on the shadow replica, so the primary cannot run it before a
// clean comparison window — and when the white-box rules accept it under
// the current environment. Transfers the model has already measured
// (promoted or rolled back) are never re-proposed.
func (o *OnlineTune) warmApply(m *model, env whitebox.Env) []float64 {
	if o.roll == nil {
		return nil
	}
	admissible := func(u []float64) bool {
		if u == nil || m.evaluated[key(u)] {
			return false
		}
		if o.Opts.UseSafety && o.Opts.UseWhiteBox {
			if v := o.White.Check(o.Space.Decode(u), env); !v.OK {
				return false
			}
		}
		return true
	}
	if admissible(m.WarmCenter) {
		return mathx.VecClone(m.WarmCenter)
	}
	for _, t := range m.Transfer {
		if admissible(t) {
			return mathx.VecClone(t)
		}
	}
	return nil
}

// appendTransfers injects the model's pending transferred configurations
// into an assessed candidate round. Transfers the model has since
// evaluated are retired; the rest ride along through safety.Assess and
// the white-box rules exactly like locally sampled candidates.
func (o *OnlineTune) appendTransfers(m *model, candidates [][]float64) [][]float64 {
	if len(m.Transfer) == 0 {
		return candidates
	}
	kept := m.Transfer[:0]
	for _, t := range m.Transfer {
		if m.evaluated[key(t)] {
			continue
		}
		kept = append(kept, t)
		candidates = append(candidates, mathx.VecClone(t))
	}
	m.Transfer = kept
	return candidates
}

// contribute reports a safe observation (or a promotion) to the fleet
// store, attaching the model's GP hyperparameters once the model has
// actually optimized them — prior hyperparameters carry no fleet signal.
func (o *OnlineTune) contribute(m *model, ctx, unit []float64, perf, tau float64, promoted bool) {
	k := o.fleet()
	if k == nil {
		return
	}
	var hyper []float64
	if m.HyperTuned {
		hyper = m.gp.Hyperparams()
	}
	k.Contribute(ctx, knowledge.SafeConfig{
		Unit: mathx.VecClone(unit), Perf: perf, Tau: tau, Promoted: promoted,
	}, hyper)
}
