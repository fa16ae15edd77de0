package tune

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/featurize"
	"repro/internal/knobs"
	"repro/internal/workload"
)

// TestSessionConcurrentHammer hammers one session from many goroutines
// mixing Suggest, Report, Snapshot and read accessors — the regression
// test for the LastRecommendation/Timings concurrency hazard (run under
// -race in CI). Correctness of interleaved results is not asserted
// (ordering is the caller's concern); absence of data races and torn
// state is.
func TestSessionConcurrentHammer(t *testing.T) {
	s, err := NewSession(Config{Space: "case5", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	space := knobs.CaseStudy5()
	gen := workload.NewYCSB(13)

	const goroutines = 8
	const opsPer = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := dbsim.New(space, int64(g))
			for i := 0; i < opsPer; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, err := s.Suggest(context.Background()); err != nil {
						t.Error(err)
						return
					}
				case 1:
					w := gen.At(g*opsPer + i)
					res := in.Eval(space.DBADefault(), w, dbsim.EvalOptions{})
					dba := in.DBAResult(w)
					if err := s.Report(Outcome{
						Workload:    WorkloadFromSnapshot(w),
						Stats:       in.OptimizerStats(w),
						Metrics:     res.Metrics,
						Performance: res.Objective(w.OLAP),
						Baseline:    dba.Objective(w.OLAP),
						Failed:      res.Failed,
					}); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := s.Snapshot(); err != nil {
						t.Error(err)
						return
					}
				default:
					s.Iter()
					s.Best()
					s.RolloutPhase()
				}
			}
		}()
	}
	wg.Wait()
}

// TestCoreConcurrentAccessors hammers the underlying tuner directly:
// Recommend/Observe in one goroutine racing the accessor methods that
// previously returned unsynchronized pointers into tuner state.
func TestCoreConcurrentAccessors(t *testing.T) {
	space := knobs.CaseStudy5()
	a := NewOnlineTuner(space, 4, space.DBADefault(), 17, DefaultTunerOptions())
	in := dbsim.New(space, 17)
	gen := workload.NewYCSB(17)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if rec := a.T.LastRecommendation(); rec != nil {
					_ = rec.SafetySetSize
					_ = rec.Unit
				}
				_ = a.T.Timings().Iters
				_ = a.T.NumModels()
				_, _ = a.T.Best()
				_ = a.T.RolloutStatus()
			}
		}()
	}

	ctx := make([]float64, 4)
	for i := 0; i < 40; i++ {
		w := gen.At(i)
		dba := in.DBAResult(w)
		ctx[0], ctx[1], ctx[2], ctx[3] = w.ReadFrac, w.ScanFrac, w.Skew, w.DataGB/100
		env := Env{Iter: i, Snapshot: w, Ctx: ctx, Metrics: Metrics{}, Tau: dba.Objective(w.OLAP), OLAP: w.OLAP, HW: in.HW}
		cfg := a.Propose(env)
		res := in.Eval(cfg, w, dbsim.EvalOptions{})
		a.Feedback(env, cfg, res)
	}
	close(done)
	wg.Wait()
}

// TestConcurrentCreatesShareOnePretrain (run under -race): creates racing
// on one unseen seed pre-train it once, and none of them holds a lock the
// others need while it trains.
func TestConcurrentCreatesShareOnePretrain(t *testing.T) {
	m, err := NewManagerOpts("", ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seed := freshSeeds(1)
	before := featurize.Pretrainings()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("db-%d", g)
			if _, err := m.Create(id, Config{Space: "case5", Seed: seed}); err != nil {
				t.Error(err)
				return
			}
			if _, err := m.Suggest(context.Background(), id); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if d := featurize.Pretrainings() - before; d != 1 {
		t.Fatalf("8 concurrent creates on one seed pre-trained %d times, want 1", d)
	}
}
