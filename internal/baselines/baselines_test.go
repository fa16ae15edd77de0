package baselines

import (
	"math"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/workload"
)

// drive runs a tuner for iters iterations on a workload, returning the
// per-iteration objectives and safety counts.
func drive(t *testing.T, tn Tuner, space *knobs.Space, gen workload.Generator, iters int) (perfs []float64, unsafe, fails int) {
	t.Helper()
	in := dbsim.New(space, 3)
	var last dbsim.InternalMetrics
	ctx := make([]float64, 4)
	for i := 0; i < iters; i++ {
		w := gen.At(i)
		dba := in.DBAResult(w)
		tau := dba.Objective(w.OLAP)
		// Simple context stand-in: mix stats (the real featurizer is
		// exercised in the bench package tests).
		ctx[0], ctx[1], ctx[2], ctx[3] = w.ReadFrac, w.ScanFrac, w.Skew, w.DataGB/100
		env := TuneEnv{Iter: i, Snapshot: w, Ctx: append([]float64{}, ctx...), Metrics: last, Tau: tau, OLAP: w.OLAP, HW: in.HW}
		cfg := tn.Propose(env)
		res := in.Eval(cfg, w, dbsim.EvalOptions{})
		tn.Feedback(env, cfg, res)
		last = res.Metrics
		p := res.Objective(w.OLAP)
		perfs = append(perfs, p)
		if res.Failed {
			fails++
			unsafe++
		} else if p < tau-0.05*math.Abs(tau) {
			unsafe++
		}
	}
	return perfs, unsafe, fails
}

func TestFixedTunerIsConstant(t *testing.T) {
	space := knobs.MySQL57()
	f := NewFixed("DBADefault", space.DBADefault())
	if f.Name() != "DBADefault" {
		t.Fatal("name wrong")
	}
	cfg := f.Propose(TuneEnv{})
	cfg["innodb_buffer_pool_size"] = 1 // mutate the copy
	cfg2 := f.Propose(TuneEnv{})
	if cfg2["innodb_buffer_pool_size"] == 1 {
		t.Fatal("Propose must return a copy")
	}
}

func TestBOProposesValidConfigs(t *testing.T) {
	space := knobs.MySQL57()
	bo := NewBO(space, 1)
	perfs, _, _ := drive(t, bo, space, workload.NewTPCC(1, false), 30)
	if len(perfs) != 30 {
		t.Fatal("missing iterations")
	}
	if len(bo.y) != 30 {
		t.Fatalf("surrogate holds %d obs", len(bo.y))
	}
}

func TestBOImprovesOnStaticWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	space := knobs.MySQL57()
	bo := NewBO(space, 2)
	perfs, unsafe, _ := drive(t, bo, space, workload.NewTPCC(1, false), 80)
	// BO should eventually find configs above the default — and rack up
	// plenty of unsafe trials on the way (the paper's Figure 1(c)).
	best := perfs[0]
	for _, p := range perfs {
		if p > best {
			best = p
		}
	}
	if best <= perfs[0] {
		t.Fatal("BO never improved over its first sample")
	}
	if unsafe < 10 {
		t.Fatalf("BO suspiciously safe (%d unsafe): unconstrained exploration should violate often", unsafe)
	}
}

func TestDDPGLearnsWithoutPanics(t *testing.T) {
	space := knobs.MySQL57()
	d := NewDDPG(space, 3)
	perfs, _, _ := drive(t, d, space, workload.NewTwitter(1, false), 40)
	if len(perfs) != 40 {
		t.Fatal("missing iterations")
	}
	// Noise decays.
	if d.noise >= d.NoiseStart {
		t.Fatalf("exploration noise did not decay: %v", d.noise)
	}
}

func TestQTunePredictorLearns(t *testing.T) {
	space := knobs.MySQL57()
	q := NewQTune(space, 4, 4)
	in := dbsim.New(space, 3)
	w := workload.NewTPCC(1, false).At(0)
	dba := in.DBAResult(w)
	ctx := []float64{w.ReadFrac, w.ScanFrac, w.Skew, 0.2}
	env := TuneEnv{Snapshot: w, Ctx: ctx, Tau: dba.Objective(false), HW: in.HW}
	// Feed the same (ctx → metrics) pair repeatedly: prediction error
	// must shrink.
	res := in.Eval(space.DBADefault(), w, dbsim.EvalOptions{NoNoise: true})
	errAt := func() float64 {
		pred := q.predictor.Forward(ctx)
		target := res.Metrics.Vector()
		e := 0.0
		for i := range pred {
			d := pred[i] - target[i]
			e += d * d
		}
		return e
	}
	before := errAt()
	for i := 0; i < 50; i++ {
		q.Feedback(env, space.DBADefault(), res)
	}
	if after := errAt(); after >= before {
		t.Fatalf("metric predictor did not learn: %v -> %v", before, after)
	}
}

func TestResTuneChunksSources(t *testing.T) {
	space := knobs.MySQL57()
	r := NewResTune(space, 5)
	drive(t, r, space, workload.NewTwitter(1, false), 60)
	// 60 observations at chunk 25 → at least 2 sealed base models.
	if len(r.bases) < 2 {
		t.Fatalf("expected ≥2 base models, got %d", len(r.bases))
	}
	w := r.rgpeWeights()
	sum := 0.0
	for _, x := range w {
		if x < 0 {
			t.Fatalf("negative RGPE weight: %v", w)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestMysqlTunerSafeAndStable(t *testing.T) {
	space := knobs.MySQL57()
	m := NewMysqlTuner(space)
	perfs, unsafe, fails := drive(t, m, space, workload.NewTPCC(1, false), 40)
	if fails != 0 {
		t.Fatalf("MysqlTuner caused %d failures", fails)
	}
	if frac := float64(unsafe) / float64(len(perfs)); frac > 0.25 {
		t.Fatalf("MysqlTuner unsafe fraction %.0f%%", frac*100)
	}
}

func TestMysqlTunerRespectsSpace(t *testing.T) {
	space := knobs.CaseStudy5()
	m := NewMysqlTuner(space)
	cfg := m.Propose(TuneEnv{HW: dbsim.DefaultHardware(), Snapshot: workload.NewJOB(1, false).At(0)})
	for name := range cfg {
		if _, ok := space.Get(name); !ok {
			t.Fatalf("MysqlTuner set unknown knob %s", name)
		}
	}
}
