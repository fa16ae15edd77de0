package tune_test

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/workload"
	"repro/tune"
)

// Example_session shows the public tuning loop: create a session, ask
// for configuration advice, run the workload interval however you like,
// and report the raw observation back — SQL text, optimizer statistics,
// metrics and the measured performance. The session featurizes the
// workload internally; no vectors cross the API.
func Example_session() {
	sess, err := tune.NewSession(tune.Config{Space: "case5", Seed: 1})
	if err != nil {
		panic(err)
	}

	// Ask for the first configuration. With nothing observed yet the
	// advice falls back to the initial safety set (the DBA default).
	advice, err := sess.Suggest(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("knobs advised:", len(advice.Config))
	fmt.Println("fallback to initial safe config:", advice.Fallback)

	// Apply advice.Config to the database, run one interval, measure.
	// Here: pretend we measured 21500 txn/s vs. a 20000 txn/s default.
	err = sess.Report(tune.Outcome{
		Workload: tune.Workload{
			Statements: []tune.Statement{
				{SQL: "SELECT c_balance FROM customer WHERE c_id = 42", Weight: 3},
				{SQL: "UPDATE warehouse SET w_ytd = w_ytd + 7 WHERE w_id = 1", Weight: 1},
			},
			Unlimited: true,
		},
		Stats:       tune.OptimizerStats{RowsExamined: 120, FilterPct: 30, IndexUsedFrac: 1},
		Metrics:     tune.Metrics{BufferPoolHitRate: 0.96, QPS: 21500},
		Performance: 21500,
		Baseline:    20000,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("intervals reported:", sess.Iter())

	// Snapshot the session; Restore resumes it bitwise-identically.
	data, err := sess.Snapshot()
	if err != nil {
		panic(err)
	}
	restored, err := tune.Restore(data)
	if err != nil {
		panic(err)
	}
	fmt.Println("restored at interval:", restored.Iter())

	// Output:
	// knobs advised: 5
	// fallback to initial safe config: true
	// intervals reported: 1
	// restored at interval: 1
}

// ExampleSession drives a full 60-interval tuning loop: a session for
// the 5-knob case-study space against the simulated instance under
// static YCSB, reporting raw observations (SQL, optimizer stats, metrics
// and performance) and printing what OnlineTune found.
func ExampleSession() {
	// The session: OnlineTune on the paper's 5-knob case-study subset,
	// seeded for reproducibility. The initial safety set is the DBA
	// default (the Config default).
	sess, err := tune.NewSession(tune.Config{Space: "case5", Seed: 1})
	if err != nil {
		panic(err)
	}

	// The database and workload: the simulated instance under YCSB at a
	// fixed 75% read ratio. In a real deployment these are your DBMS and
	// whatever your clients send it.
	in := dbsim.New(knobs.CaseStudy5(), 1)
	gen := &workload.YCSB{Seed: 1, ReadRatioAt: func(int) float64 { return 0.75 }}

	// The loop: Suggest a configuration, apply and measure it, then
	// Report the raw observation back; the session featurizes it.
	fmt.Println("iter   throughput   threshold")
	var cum, tau0 float64
	var unsafe, failures int
	for i := 0; i < 60; i++ {
		adv, err := sess.Suggest(context.Background())
		if err != nil {
			panic(err)
		}

		w := gen.At(i)
		res := in.Eval(adv.Config, w, dbsim.EvalOptions{})
		perf := res.Objective(w.OLAP)
		dba := in.DBAResult(w)
		tau := dba.Objective(w.OLAP)

		if err := sess.Report(tune.Outcome{
			Workload:    tune.WorkloadFromSnapshot(w),
			Stats:       in.OptimizerStats(w),
			Metrics:     res.Metrics,
			Performance: perf,
			Baseline:    tau,
			Failed:      res.Failed,
		}); err != nil {
			panic(err)
		}

		cum += perf
		if i == 0 {
			tau0 = tau
		}
		if res.Failed {
			failures++
			unsafe++
		} else if perf < 0.95*tau {
			unsafe++
		}
		if i%5 == 0 {
			fmt.Printf("%4d   %10.0f   %9.0f\n", i, perf, tau)
		}
	}

	fmt.Printf("\ncumulative txns: %.4g (threshold baseline %.4g)\n", cum, tau0*60)
	fmt.Printf("unsafe: %d   failures: %d\n", unsafe, failures)

	if best, perf, ok := sess.Best(); ok {
		fmt.Println("\nbest configuration found:")
		for _, name := range slices.Sorted(maps.Keys(best)) {
			fmt.Printf("  %-28s %v\n", name, best[name])
		}
		fmt.Printf("  (best measured throughput %.0f txn/s)\n", perf)
	}

	// Output:
	// iter   throughput   threshold
	//    0        25027       24384
	//    5        23669       24384
	//   10        25010       24384
	//   15        23748       24384
	//   20        24778       24384
	//   25        24237       24384
	//   30        24818       24384
	//   35        23657       24384
	//   40        24436       24384
	//   45        24147       24384
	//   50        24562       24384
	//   55        24440       24384
	//
	// cumulative txns: 1.463e+06 (threshold baseline 1.463e+06)
	// unsafe: 0   failures: 0
	//
	// best configuration found:
	//   innodb_buffer_pool_size      1.3958643712e+10
	//   innodb_spin_wait_delay       6
	//   innodb_thread_concurrency    16
	//   max_heap_table_size          6.7108864e+07
	//   sort_buffer_size             2.097152e+06
	//   (best measured throughput 25274 txn/s)
}
