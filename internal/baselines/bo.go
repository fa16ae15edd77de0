package baselines

import (
	"math"
	"math/rand"

	"repro/internal/dbsim"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/mathx"
)

// BO is the OtterTune-style tuner: a Gaussian process surrogate over the
// configuration space (context-blind) with expected improvement. It is an
// offline-style method: it neither models the environment nor constrains
// safety, so under workload drift its surrogate conflates observations
// from different regimes — the behavior Figure 5 quantifies.
type BO struct {
	Space *knobs.Space
	// InitSamples is the number of initial quasi-random probes
	// (OtterTune seeds its GP with a small design).
	InitSamples int
	// CandidatePool is the number of random points EI is maximized over.
	CandidatePool int

	g    *gp.GP
	x    [][]float64
	y    []float64
	rng  *rand.Rand
	best float64
}

// NewBO returns an OtterTune-style GP-EI tuner.
func NewBO(space *knobs.Space, seed int64) *BO {
	return &BO{
		Space:         space,
		InitSamples:   5,
		CandidatePool: 400,
		g:             gp.New(gp.NewMatern52(1.0, 0.3), 1e-3),
		rng:           rand.New(rand.NewSource(seed)),
		best:          math.Inf(-1),
	}
}

// Name implements Tuner.
func (b *BO) Name() string { return "BO" }

// Propose implements Tuner.
func (b *BO) Propose(env TuneEnv) knobs.Config {
	if len(b.x) < b.InitSamples {
		// Initial design: default first, then random probes.
		if len(b.x) == 0 {
			return b.Space.Default()
		}
		u := make([]float64, b.Space.Dim())
		for i := range u {
			u[i] = b.rng.Float64()
		}
		return b.Space.Decode(u)
	}
	// Maximize EI over a random candidate pool plus perturbations of the
	// incumbent.
	bestU, bestEI := b.randomPoint(), math.Inf(-1)
	incumbent := b.incumbent()
	for i := 0; i < b.CandidatePool; i++ {
		var u []float64
		switch {
		case i < b.CandidatePool/4 && incumbent != nil:
			u = mathx.VecClone(incumbent)
			for d := range u {
				u[d] = mathx.Clamp(u[d]+0.1*b.rng.NormFloat64(), 0, 1)
			}
		default:
			u = b.randomPoint()
		}
		if ei := b.ei(u); ei > bestEI {
			bestEI, bestU = ei, u
		}
	}
	return b.Space.Decode(bestU)
}

func (b *BO) randomPoint() []float64 {
	u := make([]float64, b.Space.Dim())
	for i := range u {
		u[i] = b.rng.Float64()
	}
	return u
}

func (b *BO) incumbent() []float64 {
	bi := mathx.ArgMax(b.y)
	if bi < 0 {
		return nil
	}
	return b.x[bi]
}

// ei computes expected improvement at a unit point.
func (b *BO) ei(u []float64) float64 {
	mu, v := b.g.Predict(u)
	s := math.Sqrt(v)
	if s < 1e-12 {
		return 0
	}
	const xi = 0.01
	z := (mu - b.best - xi) / s
	return (mu-b.best-xi)*mathx.NormalCDF(z) + s*mathx.NormalPDF(z)
}

// Feedback implements Tuner.
func (b *BO) Feedback(env TuneEnv, cfg knobs.Config, res dbsim.Result) {
	perf := objective(res, env.OLAP)
	if res.Failed {
		// The hang yields a catastrophic observation; the GP learns it.
		perf = env.Tau - math.Max(1, math.Abs(env.Tau))
	}
	u := b.Space.Encode(cfg)
	b.x = append(b.x, u)
	b.y = append(b.y, perf)
	if perf > b.best {
		b.best = perf
	}
	_ = b.g.Fit(b.x, b.y) // O(n³): BO's overhead grows cubically (Fig. 8)
	if len(b.y)%25 == 0 {
		b.g.OptimizeHyperparams(40)
	}
}
