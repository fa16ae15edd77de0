package bench_test

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/knobs"
	"repro/internal/workload"
	"repro/tune"
)

// ExampleRun drives OnlineTune through bench.Run on the 40-knob MySQL
// space under static write-heavy TPC-C and prints the safety machinery
// of §6: the subspace region kind and the safety set's size every 6
// intervals, then each white-box rule's relaxation state. With this seed
// the black box admits no candidate in 120 intervals (safety_set 0), so
// every interval serves the initial safe configuration, no interval is
// unsafe and no rule is relaxed.
func ExampleRun() {
	space := knobs.MySQL57()
	gen := workload.NewTPCC(11, false)
	feat := bench.NewFeaturizer(11)
	tuner := tune.NewOnlineTuner(space, feat.Dim(), space.DBADefault(), 11, tune.DefaultTunerOptions())

	s := bench.Run(tuner, bench.RunConfig{Space: space, Gen: gen, Iters: 120, Seed: 11, Feat: feat})

	fmt.Println("iter   region      safety_set   perf_vs_tau_pct")
	for i := 0; i < 120; i += 6 {
		fmt.Printf("%4d   %-10s %11d %16.1f\n",
			i, s.RegionKinds[i], s.SafetySetSizes[i], 100*(s.Perf[i]/s.Tau[i]-1))
	}

	fmt.Println("\nwhite-box rule states after the run:")
	for _, r := range tuner.T.White.Rules {
		state := "active"
		if r.Ignored() {
			state = "ignored (conflict threshold reached)"
		}
		fmt.Printf("  %-28s relaxations=%d state=%s\n", r.Name, r.Relaxations(), state)
	}
	fmt.Printf("\nunsafe: %d   failures: %d\n", s.Unsafe, s.Failures)

	// Output:
	// iter   region      safety_set   perf_vs_tau_pct
	//    0   init                 0             -2.5
	//    6   line                 0              2.5
	//   12   probe                0              0.2
	//   18   line                 0             -3.3
	//   24   hypercube            0              0.9
	//   30   probe                0             -1.0
	//   36   hypercube            0              2.6
	//   42   probe                0             -0.8
	//   48   hypercube            0             -1.0
	//   54   probe                0              0.7
	//   60   probe                0             -0.6
	//   66   hypercube            0              1.6
	//   72   probe                0             -1.1
	//   78   line                 0              4.6
	//   84   probe                0              0.2
	//   90   line                 0             -1.6
	//   96   hypercube            0              1.8
	//  102   probe                0             -1.9
	//  108   line                 0              1.0
	//  114   probe                0             -1.1
	//
	// white-box rule states after the run:
	//   total-memory-budget          relaxations=0 state=active
	//   thread-concurrency-floor     relaxations=0 state=active
	//   spin-wait-ceiling            relaxations=0 state=active
	//   join-buffer-on-joins         relaxations=0 state=active
	//   per-connection-buffer-cap    relaxations=0 state=active
	//   sort-buffer-on-sorts         relaxations=0 state=active
	//   durability-on-writes         relaxations=0 state=active
	//   io-capacity-floor            relaxations=0 state=active
	//   max-connections-floor        relaxations=0 state=active
	//   tmp-table-cap                relaxations=0 state=active
	//
	// unsafe: 0   failures: 0
}
