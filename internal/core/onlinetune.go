// Package core implements OnlineTune (Algorithm 3): the safe, contextual
// online configuration tuner. Each iteration it featurizes the
// environment into a context, selects the contextual GP model whose
// cluster the context belongs to, adapts that model's configuration
// subspace, assesses candidate safety with black-box confidence bounds
// and white-box rules, recommends a configuration by UCB or safe-boundary
// exploration, and updates the model and clustering with the observed
// performance.
package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/forest"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/mathx"
	"repro/internal/repo"
	"repro/internal/rollout"
	"repro/internal/safety"
	"repro/internal/subspace"
	"repro/internal/svm"
	"repro/internal/whitebox"
)

// Options configures OnlineTune. Its ten snake_case tunables are what a
// served session may set, as an overlay on DefaultOptions (UnmarshalJSON).
// The Use* switches implement the paper's ablations (§7.3) and, like
// Rollout and Knowledge, exist in process only.
type Options struct {
	Beta    float64 `json:"beta"`    // confidence-bound width (Srinivas et al.)
	Epsilon float64 `json:"epsilon"` // ε-greedy boundary-exploration probability
	// SafetyMargin inflates τ by this fraction of |τ| during assessment,
	// absorbing measurement noise so that borderline configurations are
	// not declared safe on the strength of a lucky sample.
	SafetyMargin float64 `json:"safety_margin"`

	Candidates int `json:"candidates"`  // subspace discretization size per iteration
	ClusterCap int `json:"cluster_cap"` // P: max observations per cluster model

	ReclusterEvery int     `json:"recluster_every"` // simulate a fresh clustering every K observations
	MIThreshold    float64 `json:"mi_threshold"`    // re-learn when MI(current, simulated) < threshold
	MinRecluster   int     `json:"min_recluster"`   // observations needed before any clustering

	UseWhiteBox, UseBlackBox, UseSubspace, UseClustering bool `json:"-"`
	// UseSafety false disables all safety machinery (vanilla contextual
	// BO, the paper's OnlineTune-w/o-safe).
	UseSafety bool `json:"-"`

	// HyperoptEvery refits GP hyperparameters every N observations
	// (0 disables).
	HyperoptEvery int `json:"hyperopt_every"`

	// Rollout stages every recommendation that differs from the primary's
	// last-good configuration on a second replica until a clean comparison
	// window promotes it (see internal/rollout); nil keeps direct apply.
	Rollout *rollout.Policy `json:"-"`

	// RepoCap bounds the data repository's resident observations
	// (oldest evicted first); 0 keeps it unbounded.
	RepoCap int `json:"repo_cap"`

	// Knowledge connects the tuner to a fleet knowledge base for
	// cross-session transfer and to its owner's op log (nil = an
	// isolated tuner that logs nothing). Excluded from serialized
	// snapshots; the owner re-injects it on restore.
	Knowledge Knowledge `json:"-"`
}

// UnmarshalJSON decodes an options object as an overlay on
// DefaultOptions: omitted tunables keep the paper's settings, and a key
// that names no tunable — an ablation switch, the rollout policy, a typo
// — is an unknown-field error.
func (o *Options) UnmarshalJSON(data []byte) error {
	type tunables Options // drops the method, so Decode does not recurse
	t := tunables(DefaultOptions())
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&t)
	if err == nil {
		*o = Options(t)
	}
	return err
}

// DefaultOptions mirrors the paper's settings.
func DefaultOptions() Options {
	return Options{
		Beta:           2.5,
		Epsilon:        0.1,
		SafetyMargin:   0.025,
		Candidates:     100,
		ClusterCap:     80,
		ReclusterEvery: 25,
		MIThreshold:    0.5,
		MinRecluster:   50,
		UseWhiteBox:    true,
		UseBlackBox:    true,
		UseSubspace:    true,
		UseClustering:  true,
		UseSafety:      true,
		HyperoptEvery:  25,
		RepoCap:        4096,
	}
}

// model is one cluster's contextual GP with its subspace state.
type model struct {
	gp      *gp.ContextualGP
	adapter *subspace.Adapter
	// evaluated remembers quantized candidates already tried, to detect
	// an exhausted safety set (a switching-rule trigger).
	evaluated map[string]bool
	bestPerf  float64 // −Inf before the first safe observation
	modelState
}

// modelState is a cluster model's bookkeeping, exported as is.
type modelState struct {
	BestUnit []float64 `json:"best_unit"`
	LastPerf float64   `json:"last_perf,omitempty"`
	HasLast  bool      `json:"has_last,omitempty"`
	ObsCount int       `json:"obs_count"`
	// CoolDown > 0 forces conservative fallback recommendations after an
	// unsafe evaluation (the paper's immediate tightening reaction).
	CoolDown int `json:"cool_down,omitempty"`

	// Fleet-transfer state: Transfer holds advised configurations not
	// yet evaluated locally (injected into assessed candidate rounds),
	// WarmCenter centers the subspace until a measured incumbent exists,
	// and HyperTuned marks that this model has optimized its own GP
	// hyperparameters (the gate for contributing them to the fleet).
	Transfer   [][]float64 `json:"transfer,omitempty"`
	WarmCenter []float64   `json:"warm_center,omitempty"`
	HyperTuned bool        `json:"hyper_tuned,omitempty"`
}

// Recommendation describes one recommended configuration and the
// decision path that produced it (for the case-study visualizations).
// Its JSON form leaves out what State restores from other fields: the
// configurations (decoded from the units) and the ignored rule (stored by
// name).
type Recommendation struct {
	Unit   []float64    `json:"unit"`
	Config knobs.Config `json:"-"`
	// Boundary reports whether the ε-greedy branch picked the safe
	// boundary point rather than the UCB maximizer.
	Boundary bool `json:"boundary,omitempty"`
	// Fallback reports that the safe set was empty and the tuner stayed
	// at the best known configuration.
	Fallback bool `json:"fallback,omitempty"`
	// SafetySetSize is the number of safe candidates this round.
	SafetySetSize int `json:"safety_set_size,omitempty"`
	// ModelIndex is the selected cluster model.
	ModelIndex int `json:"model_index,omitempty"`
	// IgnoredRule is the white-box rule bypassed by conflict relaxation.
	IgnoredRule *whitebox.Rule `json:"-"`
	// RegionKind names the path that produced Unit: "hypercube"/"line"
	// (subspace), "global", "init" (cold model), "warm" (fleet transfer),
	// "probe" (novel context or post-unsafe cooldown) or "hold" (a
	// rollout window pins the assignment).
	RegionKind string `json:"region_kind,omitempty"`
	// WhiteBoxVetoes counts candidates the rule engine rejected this
	// round (white-box rule hits).
	WhiteBoxVetoes int `json:"white_box_vetoes,omitempty"`
	// RolloutPhase is the rollout state this recommendation was routed
	// through: "" (disabled — direct apply), "steady" (Unit goes straight
	// to the primary), "switchover" (blue/green roles are swapping) or
	// "tuning"/"revalidate" (Unit/Config carry the primary's
	// last-good configuration while ShadowUnit/ShadowConfig carry the
	// candidate staged on the other replica; report the pair through
	// ObservePair).
	RolloutPhase string `json:"rollout_phase,omitempty"`
	// ShadowUnit/ShadowConfig are the staged candidate, if any.
	ShadowUnit   []float64    `json:"shadow_unit,omitempty"`
	ShadowConfig knobs.Config `json:"-"`
}

// OnlineTune is the tuner. It is safe for concurrent use: Recommend,
// Observe and every accessor serialize on an internal mutex (internal
// candidate scoring still fans out across the worker pool).
type OnlineTune struct {
	Space *knobs.Space
	Opts  Options
	White *whitebox.Engine
	Repo  *repo.Repo

	// mu serializes tuner state. Recommend/Observe hold it for their
	// whole duration; accessors take it briefly, so readers polling
	// LastRecommendation or Timings from other goroutines never observe
	// a half-written state.
	mu sync.Mutex

	ctxDim int
	// roll is the canary or blue/green rollout (nil = direct apply).
	roll       *rollout.Controller
	models     []*model
	labels     []int // cluster label per repo observation
	classifier *svm.Multiclass
	src        *mathx.Source // rng's source, counting its draws
	rng        *rand.Rand
	seed       int64

	// reseed is armed by a steady-phase drift rollback: the next
	// Recommend re-queries the fleet store so a workload that drifted
	// away from the promoted configuration can pick up transfers from
	// sessions that already tuned the new regime.
	reseed bool

	// reclusterIdx keeps each context's nearest distances across
	// re-cluster checks, O(n·k) resident: until the repository first
	// evicts, contexts are append-only, so each check only measures the
	// contexts observed since the previous one.
	reclusterIdx *cluster.DistMatrix

	initialUnit []float64

	// pending white-box rule awaiting an outcome report.
	pendingRule *whitebox.Rule

	lastRec *Recommendation
	times   StageTimes
}

// New builds an OnlineTune instance for a knob space and context
// dimensionality. The initial safety set is the given unit-encoded
// configuration (the paper uses the DBA default).
func New(space *knobs.Space, ctxDim int, initialSafe []float64, seed int64, opts Options) *OnlineTune {
	o := &OnlineTune{
		Space:        space,
		Opts:         opts,
		White:        whitebox.NewEngineFor(space.Engine),
		Repo:         repo.NewBounded(opts.RepoCap),
		ctxDim:       ctxDim,
		src:          mathx.NewSource(seed, 0),
		seed:         seed,
		initialUnit:  mathx.VecClone(initialSafe),
		reclusterIdx: cluster.NewDistMatrix(nil),
	}
	o.rng = rand.New(o.src)
	if opts.Rollout != nil {
		o.roll = rollout.NewController(*opts.Rollout, initialSafe)
	}
	o.models = []*model{o.newModel(initialSafe)}
	return o
}

func (o *OnlineTune) newModel(center []float64) *model {
	return o.newModelAt(len(o.models), center)
}

// kernelWeights down-weights categorical dimensions in the GP's distance
// metric: an adjacent enum value is a moderate move, not half the unit
// range, so the model can generalize safety across a category flip.
func kernelWeights(space *knobs.Space) []float64 {
	w := make([]float64, space.Dim())
	for i, k := range space.Knobs {
		w[i] = 1
		if k.Cardinality() > 1 {
			w[i] = 0.35
		}
	}
	return w
}

// minSteps gives categorical knobs a perturbation floor so their
// neighbors are reachable from inside a small trust region.
func minSteps(space *knobs.Space) []float64 {
	out := make([]float64, space.Dim())
	for i, k := range space.Knobs {
		if c := k.Cardinality(); c > 1 {
			out[i] = 1/float64(c-1) + 1e-9
		}
	}
	return out
}

// importantAxes answers the important-direction oracle: the top axes of
// the per-knob importances a small random forest fitted on the model's
// observations assigns (none below ten observations).
func (o *OnlineTune) importantAxes(m *model) []int {
	configs, _, perf := m.gp.Observations()
	if len(configs) < 10 {
		return nil
	}
	o.times.ImportanceFits++
	f := forest.NewForest(10, 6, 3)
	f.Fit(configs, perf, o.seed)
	imp := f.Importance(configs, perf, o.seed+1)
	if len(imp) != o.Space.Dim() {
		return nil
	}
	return subspace.TopAxes(imp)
}

// selectModel returns the model for a context: the SVM classifier's
// cluster if trained, else model 0.
func (o *OnlineTune) selectModel(ctx []float64) int {
	if !o.Opts.UseClustering || o.classifier == nil {
		return 0
	}
	idx := o.classifier.Predict(ctx)
	if idx < 0 || idx >= len(o.models) {
		return 0
	}
	return idx
}

func key(u []float64) string {
	b := make([]byte, 0, len(u)*2)
	for _, x := range u {
		q := int(x*200 + 0.5)
		b = append(b, byte(q), byte(q>>8))
	}
	return string(b)
}

// Recommend produces the configuration for the next interval given the
// featurized context, the white-box environment, and the safety
// threshold τ for this context (the default configuration's performance).
func (o *OnlineTune) Recommend(ctx []float64, env whitebox.Env, tau float64) Recommendation {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.times.Iters++
	t0 := now()
	mi := o.selectModel(ctx)
	m := o.models[mi]
	o.times.ModelSelect += since(t0)

	// A holding rollout state pins the recommendation: an in-flight
	// canary/tuning window keeps the primary on last-good and the
	// staged replica on the candidate until the comparison window
	// decides; a bluegreen switchover and a chain-target revalidation
	// keep the primary on last-good with nothing staged. No acquisition
	// computation (and no randomness) is consumed in any held
	// iteration, so replay stays exact.
	if o.roll != nil {
		if pu, su, phase, hold := o.roll.Hold(); hold {
			pu = mathx.VecClone(pu)
			rec := Recommendation{
				Unit: pu, Config: o.Space.Decode(pu), Fallback: true, ModelIndex: mi,
				RegionKind: "hold", RolloutPhase: string(phase),
			}
			if su != nil {
				rec.ShadowUnit = mathx.VecClone(su)
				rec.ShadowConfig = o.Space.Decode(rec.ShadowUnit)
			}
			o.lastRec = &rec
			return rec
		}
	}

	// Drift rollback re-seed: refresh the transfer pool from the fleet
	// store (hyperparameters and incumbent are left alone — the model's
	// own data stays authoritative). Runs before the cold branch so the
	// flag cannot linger; consumes no randomness.
	if o.reseed {
		o.reseed = false
		if k := o.fleet(); k != nil {
			if adv := k.Query(ctx); adv != nil {
				o.applyAdvice(m, adv, false)
			}
		}
	}

	// Fleet warm-start query: while the cluster model is young, keep
	// syncing with the fleet store. Re-querying matters because the very
	// first propose runs before any observation — its featurized context
	// carries no workload signal and can match a cluster arbitrarily —
	// whereas the next few proposes carry real contexts; applyAdvice
	// dedups, so repeat hits are cheap, and a degenerate early warm
	// center is superseded once it has been evaluated.
	if k := o.fleet(); k != nil && m.gp.Len() <= warmQueryMaxObs {
		if adv := k.Query(ctx); adv != nil {
			o.applyAdvice(m, adv, math.IsInf(m.bestPerf, -1))
		}
	}

	// Cold model: stay at the initial safety set — unless the fleet
	// store knows this context, in which case the best transferred
	// configuration is proposed instead. finishRecommend stages it on
	// the canary shadow (warmApply requires the rollout), so the primary
	// keeps the initial safe configuration until the comparison window
	// clears the transfer.
	if m.gp.Len() == 0 {
		kind := "init"
		u := o.warmApply(m, env)
		if u != nil {
			kind = "warm"
		} else {
			u = mathx.VecClone(o.bestCenter(m))
		}
		rec := Recommendation{Unit: u, Config: o.Space.Decode(u), Fallback: true, ModelIndex: mi, RegionKind: kind}
		return o.finishRecommend(rec)
	}

	// Novel context or post-unsafe cooldown: measure the evaluated-best
	// configuration conservatively before exploring (§7.2: after an
	// unsafe evaluation the safety estimate is tightened and conservative
	// configurations near the evaluated-best are recommended), recentered
	// first on the posterior-mean best for this context.
	if o.Opts.UseSafety && (m.CoolDown > 0 || o.contextNovel(m, ctx)) {
		o.decide(func(logged *Decision) *Decision {
			d := logged
			if d == nil {
				d = &Decision{}
			}
			if !o.recenter(m, ctx, tau, d, logged == nil) {
				return nil
			}
			return d
		})
		if m.CoolDown > 0 {
			m.CoolDown--
		}
		u := mathx.VecClone(o.bestCenter(m))
		rec := Recommendation{Unit: u, Config: o.Space.Decode(u), Fallback: true, ModelIndex: mi, RegionKind: "probe"}
		return o.finishRecommend(rec)
	}

	var rec Recommendation
	o.decide(func(logged *Decision) (d *Decision) {
		rec, d = o.assess(m, mi, ctx, env, tau, logged)
		return d
	})
	return o.finishRecommend(rec)
}

// decide makes one decided recommendation, an assessment or a probe's
// recenter, through the knowledge hook, which logs its decision live and
// hands the logged one back in a replay.
func (o *OnlineTune) decide(f func(logged *Decision) *Decision) {
	if k := o.Opts.Knowledge; k != nil {
		k.Decide(f)
	} else {
		f(nil)
	}
}

// Decision is the outcome of a recommendation's model work: the
// posterior recenter, the switching check's verdict, the importance
// oracle's answer, the safety and white-box assessment and the pick. A
// probe decides its recenter alone. A replay installs it instead of
// recomputing it, and it is the per-decision trace of why a session got
// its advice. Short keys keep it a few bytes in an op's log record.
type Decision struct {
	// Recenter is the observation BestByPosterior recentered the model
	// on (nil: none).
	Recenter *int `json:"r,omitempty"`
	// Exhausted is the switching check's verdict: no unevaluated safe
	// candidate is left in the region.
	Exhausted bool `json:"x,omitempty"`
	// Axes is the importance oracle's answer at a hypercube → line switch
	// that consulted it: its top axes, or noAxes for none. Nil where no
	// switch consulted it, and in a record written before decisions
	// logged it, which a replay answers live.
	Axes []int `json:"a,omitempty"`
	// Pick indexes the assessed candidates, appended transfers included;
	// −1 is the fallback of an empty safe set.
	Pick   int `json:"p,omitempty"`
	Safe   int `json:"n,omitempty"` // the safety set's size after the white-box vetoes
	Vetoes int `json:"v,omitempty"`
	// Conflicts names the rules reported in conflict with the black
	// box's preferred candidate, in report order; Ignored is the rule the
	// pick bypasses.
	Conflicts []string `json:"c,omitempty"`
	Ignored   string   `json:"i,omitempty"`
}

// noAxes is the logged answer of an importance oracle that named no
// axis, which leaves a random line direction.
var noAxes = []int{-1}

// rowsPool lends assessments the buffer their candidate walks keep
// points in.
var rowsPool = sync.Pool{New: func() any { return new(subspace.Rows) }}

// assess makes an assessed recommendation: recenter on the posterior-mean
// best, run the switching check, adapt the subspace, draw and assess the
// candidates with the black box and the white-box rules, and pick by
// ε-greedy between the UCB maximizer and the safe boundary. Live (logged
// nil) it computes the decision and returns it. Given a logged decision
// it installs it and runs only what moves state — the generator's draws,
// Adapt on the logged importance axes, the transfers, the conflict
// reports and the quantization of the pick, the one candidate it
// materializes — skipping both assessments, the batch quantization, the
// recenter search, the forest fit and the white-box checks; it returns
// nil if the decision does not fit the tuner's state.
func (o *OnlineTune) assess(m *model, mi int, ctx []float64, env whitebox.Env, tau float64, logged *Decision) (Recommendation, *Decision) {
	live := logged == nil
	d := logged
	if live {
		o.times.Assessments++
		d = &Decision{}
	}
	fits := o.recenter(m, ctx, tau, d, live)

	// ③ Subspace adaptation (or the whole space for the ablation). A
	// replay walks the switching check's and the region's draws without
	// keeping their points, which keeps the generator in step, and keeps
	// only the logged pick.
	t0 := now()
	margin := tau + o.Opts.SafetyMargin*math.Abs(tau)
	var candidates [][]float64
	var pickRow []float64 // a replay's local pick, unquantized
	var local int
	regionKind := "global"
	if o.Opts.UseSubspace && o.Opts.UseSafety {
		rows := rowsPool.Get().(*subspace.Rows)
		defer rowsPool.Put(rows)
		if region := m.adapter.Region(); region != nil {
			if live {
				d.Exhausted = o.unevaluatedSafeExhausted(m, ctx, rows.Walk(region, 40, o.rng), margin)
			} else {
				region.Walk(40, o.rng, 0, 0, nil)
			}
		}
		region, ok := o.adapt(m, d, live)
		fits = fits && ok
		if live {
			candidates = rows.Walk(region, o.Opts.Candidates, o.rng)
			local = len(candidates)
		} else {
			pickRow, local = region.Walk(o.Opts.Candidates, o.rng, d.Pick, d.Pick+1, nil)
		}
		if region.Kind == subspace.Hypercube {
			regionKind = "hypercube"
		} else {
			regionKind = "line"
		}
	} else {
		candidates = o.globalCandidates(o.Opts.Candidates)
		local = len(candidates)
		if !live && d.Pick >= 0 && d.Pick < local {
			pickRow = candidates[d.Pick]
		}
	}
	// Fleet transfers ride the same assessment as local candidates; a
	// replay keeps them alone, after the local ones.
	if live {
		candidates = o.appendTransfers(m, o.Space.QuantizeAll(candidates))
	} else {
		candidates = o.appendTransfers(m, nil)
	}
	o.times.SubspaceAdapt += since(t0)

	// ④ Safety assessment: black box, then white box.
	t0 = now()
	var assessed *safety.Assessment
	if live {
		tauEff := margin
		if !o.Opts.UseSafety || !o.Opts.UseBlackBox {
			// Without black-box safety every candidate is admissible, and
			// selection reads the bounds of them all.
			tauEff = math.Inf(-1)
		}
		assessed = safety.Assess(m.gp, ctx, candidates, o.Opts.Beta, tauEff)
		if o.Opts.UseSafety && o.Opts.UseWhiteBox {
			o.applyWhiteBox(assessed, env, d)
		}
		d.Safe = assessed.NumSafe
	} else {
		for _, name := range d.Conflicts {
			if r := o.White.Rule(name); r != nil {
				o.White.ReportConflict(r)
			} else {
				fits = false
			}
		}
	}
	o.times.SafetyAssess += since(t0)

	// ⑤ Candidate selection: ε-greedy between UCB and safe boundary.
	t0 = now()
	boundary := o.rng.Float64() < o.Opts.Epsilon
	if live {
		if boundary {
			d.Pick = assessed.ArgMaxBoundary()
		} else {
			d.Pick = assessed.ArgMaxUCB()
		}
	}
	pick, n := d.Pick, len(candidates)
	if !live {
		n += local
	}
	if pick < -1 || pick >= n {
		pick, fits = -1, false
	}
	rec := Recommendation{ModelIndex: mi, SafetySetSize: d.Safe, Boundary: boundary, RegionKind: regionKind, WhiteBoxVetoes: d.Vetoes}
	if pick < 0 {
		// Empty safe set: stage the best pending fleet transfer on the
		// canary shadow when one is available — the model has nothing of
		// its own to propose, and the shadow measurement is exactly how
		// an unvalidated transfer earns (or loses) trust without ever
		// touching the primary. Otherwise conservative fallback to the
		// best known configuration (the paper's "recommend conservative
		// configurations near the evaluated-best ones").
		if u := o.warmApply(m, env); u != nil {
			rec.Unit = u
			rec.RegionKind = "warm"
		} else {
			rec.Unit = mathx.VecClone(o.bestCenter(m))
		}
		rec.Fallback = true
	} else {
		switch {
		case live:
			rec.Unit = mathx.VecClone(candidates[pick])
		case pick < local:
			rec.Unit = o.Space.Quantize(pickRow)
		default:
			rec.Unit = candidates[pick-local] // appendTransfers' own copy
		}
		var err error
		if rec.IgnoredRule, err = o.rule(d.Ignored); err != nil {
			fits = false
		}
	}
	rec.Config = o.Space.Decode(rec.Unit)
	o.pendingRule = rec.IgnoredRule
	o.times.CandidateSelect += since(t0)
	if !fits {
		d = nil
	}
	return rec, d
}

// recenter moves the model's incumbent to the observation whose
// posterior mean under ctx is highest, when that mean reaches tau. Live
// it searches and logs the observation on d; in a replay it installs d's
// and reports false if the model holds no such observation.
func (o *OnlineTune) recenter(m *model, ctx []float64, tau float64, d *Decision, live bool) bool {
	if live {
		o.times.Recenters++
		if i, mu, ok := m.gp.BestByPosterior(ctx); ok && mu >= tau {
			d.Recenter = &i
		}
	}
	if r := d.Recenter; r != nil {
		if *r < 0 || *r >= m.gp.Len() {
			return false
		}
		m.BestUnit = m.gp.Config(*r)
	}
	return true
}

// adapt runs the subspace adaptation, answering the importance oracle of
// a hypercube → line switch: live it fits the forest and logs the answer
// on d; in a replay it installs d's logged answer, and fits only for a
// record that logged none. It reports false if a logged answer does not
// fit the space or no switch consulted it.
func (o *OnlineTune) adapt(m *model, d *Decision, live bool) (*subspace.Region, bool) {
	asked, fits := false, true
	m.adapter.ImportantAxes = func() []int {
		asked = true
		switch {
		case live:
			axes := o.importantAxes(m)
			if d.Axes = axes; len(axes) == 0 {
				d.Axes = noAxes
			}
			return axes
		case d.Axes == nil:
			return o.importantAxes(m)
		case slices.Equal(d.Axes, noAxes):
			return nil
		}
		if len(d.Axes) > 5 || slices.ContainsFunc(d.Axes, func(a int) bool { return a < 0 || a >= o.Space.Dim() }) {
			fits = false
			return nil
		}
		return d.Axes
	}
	region := m.adapter.Adapt(o.regionCenter(m), d.Exhausted)
	m.adapter.ImportantAxes = nil
	return region, fits && (asked || d.Axes == nil)
}

// finishRecommend routes a fully assembled recommendation through the
// rollout controller (when enabled) and records it. A candidate that
// differs from the primary's last-good configuration starts a canary:
// the returned Unit/Config swap to the last-good configuration for the
// primary and the candidate moves to ShadowUnit/ShadowConfig. Every
// Recommend path funnels through here, so no unit can reach the primary
// without either matching last-good or surviving a comparison window —
// including conservative probe and fallback picks of an evaluated-best
// configuration that was never promoted.
func (o *OnlineTune) finishRecommend(rec Recommendation) Recommendation {
	if o.roll != nil {
		primary, staged := o.roll.Submit(rec.Unit)
		rec.RolloutPhase = string(o.roll.Phase())
		if staged != nil {
			rec.ShadowUnit = mathx.VecClone(staged)
			rec.ShadowConfig = o.Space.Decode(rec.ShadowUnit)
			rec.Unit = mathx.VecClone(primary)
			rec.Config = o.Space.Decode(rec.Unit)
		}
	}
	o.lastRec = &rec
	return rec
}

// bestCenter returns the model's best configuration, or the initial safe
// configuration before any observation.
func (o *OnlineTune) bestCenter(m *model) []float64 {
	if math.IsInf(m.bestPerf, -1) {
		return o.initialUnit
	}
	return m.BestUnit
}

// regionCenter is the subspace anchor: the measured incumbent when one
// exists, else the best transferred configuration from the fleet store
// (warm-starting exploration near a region other sessions found good),
// else the initial safe configuration. Only the region center — what is
// *applied* still goes through bestCenter and the assessed candidates.
func (o *OnlineTune) regionCenter(m *model) []float64 {
	if math.IsInf(m.bestPerf, -1) && m.WarmCenter != nil {
		return m.WarmCenter
	}
	return o.bestCenter(m)
}

// contextNovel reports whether ctx is far from every context the model
// has observed — the trigger for a conservative probe iteration.
func (o *OnlineTune) contextNovel(m *model, ctx []float64) bool {
	return m.gp.Len() > 0 && m.gp.NearestContextDist(ctx) > 0.10
}

// unevaluatedSafeExhausted checks the switching-rule trigger over the
// candidates drawn from the current region: none that is safe remains
// unevaluated.
func (o *OnlineTune) unevaluatedSafeExhausted(m *model, ctx []float64, drawn [][]float64, tau float64) bool {
	cands := o.Space.QuantizeAll(drawn)
	assess := safety.Assess(m.gp, ctx, cands, o.Opts.Beta, tau)
	for i := range cands {
		if assess.Safe[i] && !m.evaluated[key(cands[i])] {
			return false
		}
	}
	return true
}

// globalCandidates samples the whole unit hypercube (used by the
// w/o-subspace ablation) plus the best point.
func (o *OnlineTune) globalCandidates(n int) [][]float64 {
	out := make([][]float64, 0, n)
	out = append(out, mathx.VecClone(o.bestCenter(o.models[0])))
	for len(out) < n {
		p := make([]float64, o.Space.Dim())
		for i := range p {
			p[i] = o.rng.Float64()
		}
		out = append(out, p)
	}
	return out
}

// applyWhiteBox vetoes safe candidates the rule engine rejects and
// manages conflict accounting, recording on d the number of candidates
// vetoed, the rules reported in conflict and the bypassed rule: at most
// one currently "ignored" rule may be bypassed, for outcome reporting.
//
// Rule checks are fanned across a bounded worker pool — Check and Decode
// only read engine and space state — and the verdicts are then applied
// serially in candidate order. Conflict reporting at the black box's
// pick can flip a rule into the ignored state mid-batch; when that
// happens the remaining candidates are re-checked against the updated
// engine state, so the vetoes, conflict counters and the returned rule
// are identical to a sequential check-as-you-go loop for any worker
// count (deterministic for a fixed seed).
func (o *OnlineTune) applyWhiteBox(assess *safety.Assessment, env whitebox.Env, d *Decision) {
	// Find the black box's preferred candidate to detect decision
	// conflicts (§6.2.2: conflict = white box rejects what the black box
	// recommends).
	blackPick := assess.ArgMaxUCB()
	verdicts := make([]whitebox.Verdict, len(assess.Candidates))
	checkFrom := func(start int) {
		mathx.ParallelFor(len(assess.Candidates)-start, func(k int) {
			if i := start + k; assess.Safe[i] {
				verdicts[i] = o.White.Check(o.Space.Decode(assess.Candidates[i]), env)
			}
		})
	}
	checkFrom(0)
	for i := range assess.Candidates {
		if !assess.Safe[i] {
			continue
		}
		verdict := verdicts[i]
		if verdict.OK {
			if verdict.IgnoredRule != nil && i == blackPick {
				d.Ignored = verdict.IgnoredRule.Name
			}
			continue
		}
		if i == blackPick {
			newlyIgnored := false
			for _, r := range verdict.ViolatedRules {
				was := r.Ignored()
				o.White.ReportConflict(r)
				d.Conflicts = append(d.Conflicts, r.Name)
				if !was && r.Ignored() {
					newlyIgnored = true
				}
			}
			// A rule just crossed its conflict threshold: candidates after
			// the pick must see the updated ignored state, exactly as a
			// sequential check-as-you-go loop would.
			if newlyIgnored && i+1 < len(assess.Candidates) {
				checkFrom(i + 1)
			}
		}
		assess.Veto(i)
		d.Vetoes++
	}
}

// Observe records the measured performance of the last recommendation
// (⑥⑦): it updates the cluster model, the subspace success counters, the
// white-box relaxation state, the data repository, and periodically the
// clustering.
func (o *OnlineTune) Observe(iter int, ctx, unit []float64, perf, tau float64, failed bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t0 := now()
	defer func() { o.times.ModelUpdate += since(t0) }()
	o.observePrimaryLocked(iter, ctx, unit, perf, tau, failed)
}

// observePrimaryLocked records a measurement of the serving primary
// alone. Callers hold o.mu.
func (o *OnlineTune) observePrimaryLocked(iter int, ctx, unit []float64, perf, tau float64, failed bool) {
	// A switchover interval measures the newly serving replica during
	// its expected cache-cold dip: the measurement feeds the rollout
	// controller's cost accounting (downtime, in-flight failures) but
	// NOT the model — the cold sample says nothing about the promoted
	// configuration's warm performance and would poison the GP against
	// a config that just won a full comparison window.
	if o.roll != nil && o.roll.Phase() == rollout.PhaseSwitchover {
		o.roll.ObserveSteady(iter, unit, perf, tau, failed)
		return
	}
	// A plain observation during an active canary measures the primary's
	// last-good configuration, not the staged candidate a bypassed rule
	// would be attached to.
	o.observeLocked(iter, ctx, unit, perf, tau, failed, o.roll == nil || !o.roll.CanaryActive())
}

// ObservePair records one paired interval of a canary: the primary
// measured under the last-good configuration and the shadow replica
// measured under the staged candidate. The candidate's shadow
// measurement is what feeds the model — it is the interval's
// exploratory data point, so the tuner learns exactly what direct apply
// would have taught it while the regression (if any) stays on the
// shadow. The rollout controller then consumes the pair and promotes or
// rolls back once the comparison window fills. Without an active
// canary the call is Observe of the primary's measurement under the
// last recommendation (switchover accounting included).
func (o *OnlineTune) ObservePair(iter int, ctx []float64, primaryPerf, shadowPerf, tau float64, primaryFailed, shadowFailed bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t0 := now()
	defer func() { o.times.ModelUpdate += since(t0) }()
	if o.roll == nil || !o.roll.CanaryActive() {
		unit := o.initialUnit
		if o.lastRec != nil {
			unit = o.lastRec.Unit
		}
		o.observePrimaryLocked(iter, ctx, unit, primaryPerf, tau, primaryFailed)
		return
	}
	cand := mathx.VecClone(o.roll.Candidate())
	o.observeLocked(iter, ctx, cand, shadowPerf, tau, shadowFailed, true)
	if ev := o.roll.ObservePair(iter, primaryPerf, shadowPerf, tau, primaryFailed, shadowFailed); ev == rollout.EventPromote {
		// A promotion is the strongest fleet signal: the candidate beat
		// the incumbent over a full comparison window.
		o.contribute(o.models[o.selectModel(ctx)], ctx, cand, shadowPerf, tau, true)
	}
}

// RolloutPhase returns the rollout phase alone — PhaseDirect when the
// rollout is disabled — without the state copies RolloutStatus makes,
// for session listings polled per request.
func (o *OnlineTune) RolloutPhase() rollout.Phase {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.roll == nil {
		return rollout.PhaseDirect
	}
	return o.roll.Phase()
}

// CanaryActive reports whether a candidate is staged on the non-serving
// replica (canary, tuning or revalidate): the next report is a pair.
func (o *OnlineTune) CanaryActive() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.roll != nil && o.roll.CanaryActive()
}

// RolloutStatus returns a copy of the canary or blue/green rollout
// controller's state, or nil when the rollout is disabled (direct apply).
func (o *OnlineTune) RolloutStatus() *rollout.Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.roll == nil {
		return nil
	}
	st := o.roll.Status()
	return &st
}

// observeLocked is the shared model/bookkeeping update behind Observe
// and ObservePair. Callers hold o.mu. ruleOutcome reports whether this
// observation measures the configuration the pending bypassed rule was
// attached to: during a canary the pending rule belongs to the
// CANDIDATE (running only on the shadow), so a plain primary
// observation of the last-good configuration must NOT resolve it —
// crediting a bypass from a configuration that never bypassed the rule
// would wrongly accelerate the rule's relaxation.
func (o *OnlineTune) observeLocked(iter int, ctx, unit []float64, perf, tau float64, failed, ruleOutcome bool) {
	// Steady-phase drift tracking: a promoted configuration that decays
	// as the workload drifts is rolled back to the initial safe
	// configuration. (No-op while a canary is active — ObservePair owns
	// those intervals and this call carries the shadow measurement —
	// and for measurements of anything other than the current
	// last-good, e.g. the pre-promotion config still serving in the
	// one-interval gap after a promote.)
	if o.roll != nil {
		if ev := o.roll.ObserveSteady(iter, unit, perf, tau, failed); ev == rollout.EventRollback {
			// The promoted configuration decayed under drift: arm a fleet
			// re-query so the next Recommend can pick up transfers from
			// sessions that already tuned the drifted regime.
			o.reseed = o.fleet() != nil
		}
	}
	mi := o.selectModel(ctx)
	m := o.models[mi]
	safe := !failed && perf >= tau

	// ⑦ Model update. Failures carry a strongly penalized target so the
	// GP learns to avoid the area even though the DBMS reported nothing.
	target := perf
	if failed {
		target = tau - math.Max(1, math.Abs(tau))
	}
	o.appendCapped(m, unit, ctx, target)
	m.evaluated[key(o.Space.Quantize(unit))] = true
	m.ObsCount++
	if o.Opts.HyperoptEvery > 0 && m.ObsCount%o.Opts.HyperoptEvery == 0 {
		o.refit(m)
		m.HyperTuned = true
	}

	// Subspace success/failure accounting.
	success := m.HasLast && perf > m.LastPerf && !failed
	rel := 0.0
	if m.HasLast && m.LastPerf != 0 {
		rel = (perf - m.LastPerf) / math.Abs(m.LastPerf)
	}
	m.adapter.Report(success, rel)
	if !safe {
		m.adapter.ReportUnsafe()
		m.CoolDown = 1
	}
	m.LastPerf = perf
	m.HasLast = true
	if !failed && perf > m.bestPerf && safe {
		m.bestPerf = perf
		m.BestUnit = mathx.VecClone(unit)
	}

	// White-box outcome for a bypassed rule.
	if o.pendingRule != nil && ruleOutcome {
		o.White.ReportOutcome(o.pendingRule, safe)
		o.pendingRule = nil
	}

	// Fleet contribution: every safe measurement becomes transferable
	// knowledge (promotions are contributed separately by ObservePair).
	if safe {
		o.contribute(m, ctx, unit, perf, tau, false)
	}

	// Data repository + clustering bookkeeping. An eviction from the
	// bounded repository shifts every resident observation down one, so
	// the label ledger shifts with it.
	if ev := o.Repo.Add(repo.Observation{
		Iter: iter, Context: mathx.VecClone(ctx), Unit: mathx.VecClone(unit),
		Perf: perf, Tau: tau, Safe: safe, Failed: failed,
	}); ev > 0 {
		o.labels = append(o.labels[:0], o.labels[ev:]...)
	}
	o.labels = append(o.labels, mi)
	if o.Opts.UseClustering {
		o.maybeRecluster()
	}
}

// appendCapped adds an observation to a model. Below the cluster cap P
// the contextual GP extends its cached Cholesky factor in O(n²); at the
// cap the window slides: the oldest observation is dropped, the new one
// is measured against the rest, and the model is refactorized — the
// sliding window is what bounds the GP's cost (§5.3), and a factor
// downdate is not worth the complexity at window size P.
func (o *OnlineTune) appendCapped(m *model, unit, ctx []float64, perf float64) {
	if m.gp.Len() < o.Opts.ClusterCap {
		_ = m.gp.Append(unit, ctx, perf)
		return
	}
	_ = m.gp.Slide(unit, ctx, perf)
}

// refit runs a hyperparameter refit point: a 60-evaluation search live,
// the installation of the logged search's result in a replay.
func (o *OnlineTune) refit(m *model) {
	fit := func() *gp.Refit {
		o.times.Refits++
		return m.gp.OptimizeHyperparams(60)
	}
	if k := o.Opts.Knowledge; k == nil {
		fit()
	} else if r := k.Refit(fit); r != nil {
		_ = m.gp.InstallRefit(*r) // as the search's own final factorization, a failure leaves the model unfactorized
	}
}

// maybeRecluster implements Algorithm 1's Need_ReLearn: every
// ReclusterEvery observations, simulate a fresh DBSCAN clustering of all
// contexts; if its normalized mutual information against the maintained
// labels falls below the threshold, adopt it — refit per-cluster models
// and retrain the SVM boundary.
func (o *OnlineTune) maybeRecluster() {
	// The schedule runs on lifetime observations so a bounded repository
	// (whose resident count pins at the cap) keeps re-clustering.
	n := int(o.Repo.Stats().Added)
	if n < o.Opts.MinRecluster || n%o.Opts.ReclusterEvery != 0 {
		return
	}
	if k := o.Opts.Knowledge; k != nil {
		k.Recluster(o.reclusterCheck)
	} else {
		o.reclusterCheck()
	}
}

// reclusterCheck runs one check and reports whether it adopted a new
// clustering. It runs over the incrementally extended nearest-distance
// index, so eps estimation reads kept k-distances instead of redoing the
// O(n²) pairwise work each period; a check skipped in a replay leaves
// the index short, and the next one extends it over the contexts since.
func (o *OnlineTune) reclusterCheck() bool {
	st := o.Repo.Stats()
	ctxs := o.Repo.Contexts()
	if st.Evicted == 0 {
		o.reclusterIdx.Extend(ctxs)
	} else {
		// A full repository evicts on every add, so the contexts have
		// shifted since the last check and the index is no longer a
		// prefix of them: rebuild it.
		o.reclusterIdx = cluster.NewDistMatrix(ctxs)
	}
	m := o.reclusterIdx
	res := m.DBSCAN(m.SuggestEps(4), 4)
	m.AssignNearest(&res)
	if res.NumClusters < 1 || cluster.MutualInfo(o.labels, res.Labels) >= o.Opts.MIThreshold {
		o.times.KeptChecks++
		return false // none found, or it still agrees: keep the current one
	}
	o.adoptClustering(res)
	o.times.AdoptedChecks++
	return true
}

// adoptClustering rebuilds models and the SVM boundary from a clustering.
func (o *OnlineTune) adoptClustering(res cluster.DBSCANResult) {
	obs := o.Repo.All()
	newModels := make([]*model, res.NumClusters)
	for c := 0; c < res.NumClusters; c++ {
		newModels[c] = o.newModelAt(len(newModels), o.initialUnit)
	}
	// Distribute observations (most recent last so capping keeps them).
	type triple struct {
		unit, ctx []float64
		perf      float64
	}
	buckets := make([][]triple, res.NumClusters)
	for i, ob := range obs {
		c := res.Labels[i]
		target := ob.Perf
		if ob.Failed {
			target = ob.Tau - math.Max(1, math.Abs(ob.Tau))
		}
		buckets[c] = append(buckets[c], triple{ob.Unit, ob.Context, target})
		if !ob.Failed && ob.Safe && ob.Perf > newModels[c].bestPerf {
			newModels[c].bestPerf = ob.Perf
			newModels[c].BestUnit = mathx.VecClone(ob.Unit)
		}
		newModels[c].evaluated[key(o.Space.Quantize(ob.Unit))] = true
	}
	for c, b := range buckets {
		if len(b) == 0 {
			continue
		}
		if len(b) > o.Opts.ClusterCap {
			b = b[len(b)-o.Opts.ClusterCap:]
		}
		configs := make([][]float64, len(b))
		ctxs := make([][]float64, len(b))
		perfs := make([]float64, len(b))
		for i, t := range b {
			configs[i], ctxs[i], perfs[i] = t.unit, t.ctx, t.perf
		}
		_ = newModels[c].gp.Fit(configs, ctxs, perfs)
		newModels[c].ObsCount = len(b)
	}
	o.models = newModels
	o.labels = append([]int{}, res.Labels...)

	// Decision boundary for unseen contexts.
	clf := newClassifier()
	clf.Fit(o.Repo.Contexts(), o.labels, o.seed)
	o.classifier = clf
}

// newClassifier is the untrained context-space classifier.
func newClassifier() *svm.Multiclass { return svm.NewMulticlass(5, svm.RBFKernel(2.0)) }

// newModelAt builds a model with a distinct adapter seed.
func (o *OnlineTune) newModelAt(idx int, center []float64) *model {
	m := &model{
		gp:         gp.NewContextualWeighted(o.Space.Dim(), o.ctxDim, kernelWeights(o.Space)),
		adapter:    subspace.NewAdapter(o.Space.Dim(), o.seed+int64(idx)*131+17),
		bestPerf:   math.Inf(-1),
		evaluated:  map[string]bool{},
		modelState: modelState{BestUnit: mathx.VecClone(center)},
	}
	m.adapter.MinStep = minSteps(o.Space)
	if d := o.Space.Dim(); d > 10 {
		m.adapter.PerturbK = 8 // sparse coordinate perturbation in high dimension
	}
	return m
}

// NumModels returns the current number of cluster models.
func (o *OnlineTune) NumModels() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.models)
}

// Best returns the best configuration and performance across all cluster
// models (the initial safe configuration before any safe observation).
func (o *OnlineTune) Best() ([]float64, float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	bu, bp := o.initialUnit, math.Inf(-1)
	for _, m := range o.models {
		if m.bestPerf > bp {
			bu, bp = o.bestCenter(m), m.bestPerf
		}
	}
	return mathx.VecClone(bu), bp
}

// LastRecommendation returns a copy of the most recent recommendation
// (nil before the first Recommend call). The copy shares its Unit slice
// and Config map with the value Recommend returned; neither is mutated
// after creation.
func (o *OnlineTune) LastRecommendation() *Recommendation {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.lastRec == nil {
		return nil
	}
	rec := *o.lastRec
	return &rec
}

// ExpectedImprovementAt returns the Expected Improvement of candidate u
// over the applied configuration's posterior mean under ctx, and whether
// the selected model has any observations to predict with. Unlike
// ExpectedImprovementOver it samples no candidates and draws no
// randomness.
func (o *OnlineTune) ExpectedImprovementAt(ctx, u, applied []float64) (float64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.models[o.selectModel(ctx)]
	if m.gp.Len() == 0 {
		return 0, false
	}
	mus, vars := m.gp.PredictAll([][]float64{applied, u}, ctx)
	muApplied, mu := mus[0], mus[1]
	sigma := math.Sqrt(vars[1])
	if sigma < 1e-12 {
		return math.Max(0, mu-muApplied), true
	}
	return expectedImprovement(mu-muApplied, sigma), true
}

// ExpectedImprovementOver returns the maximum Expected Improvement of
// any subspace candidate against the posterior mean of the applied
// configuration under ctx (+Inf while the selected model is cold). It
// samples 40 candidates from the model's region, or globally without
// subspace adaptation, so it consumes the tuner's randomness.
func (o *OnlineTune) ExpectedImprovementOver(ctx, applied []float64) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.models[o.selectModel(ctx)]
	if m.gp.Len() == 0 {
		return math.Inf(1)
	}
	muApplied, _ := m.gp.Predict(applied, ctx)
	var candidates [][]float64
	if region := m.adapter.Region(); region != nil && o.Opts.UseSubspace {
		rows := rowsPool.Get().(*subspace.Rows)
		defer rowsPool.Put(rows)
		candidates = rows.Walk(region, 40, o.rng)
	} else {
		candidates = o.globalCandidates(40)
	}
	best := 0.0
	for _, c := range candidates {
		mu, v := m.gp.Predict(o.Space.Quantize(c), ctx)
		sigma := math.Sqrt(v)
		if sigma < 1e-12 {
			continue
		}
		if ei := expectedImprovement(mu-muApplied, sigma); ei > best {
			best = ei
		}
	}
	return best
}

// expectedImprovement is the closed-form EI of a Gaussian posterior
// whose mean exceeds the incumbent's by gain, with std dev sigma > 0.
func expectedImprovement(gain, sigma float64) float64 {
	z := gain / sigma
	return gain*mathx.NormalCDF(z) + sigma*mathx.NormalPDF(z)
}
