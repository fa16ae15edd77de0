// Dynamic TPC-C: the paper's §7.1.1 setting — transaction weights follow
// a sine schedule with 10% noise while the data grows from 18 GB, and
// OnlineTune tunes all 40 knobs online against the DBA default threshold.
//
//	go run ./examples/dynamictpcc
package main

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/bench"
	"repro/internal/knobs"
	"repro/internal/workload"
	"repro/tune"
)

func main() {
	space := knobs.MySQL57()
	gen := workload.NewTPCC(7, true)
	feat := bench.NewFeaturizer(7)

	fmt.Println("tuning dynamic TPC-C (40 knobs) — OnlineTune vs BO vs DBA default")
	rows := [][]interface{}{}
	for _, tn := range []tune.Tuner{
		tune.NewOnlineTuner(space, feat.Dim(), space.DBADefault(), 7, tune.DefaultTunerOptions()),
		baselines.NewBO(space, 8),
		baselines.NewFixed("DBADefault", space.DBADefault()),
	} {
		s := bench.Run(tn, bench.RunConfig{Space: space, Gen: gen, Iters: 150, Seed: 7, Feat: feat})
		rows = append(rows, []interface{}{tn.Name(), s.CumFinal(), s.Unsafe, s.Failures})
	}
	fmt.Printf("%-12s %14s %8s %9s\n", "tuner", "cumulative", "unsafe", "failures")
	for _, r := range rows {
		fmt.Printf("%-12s %14.4g %8d %9d\n", r[0], r[1], r[2], r[3])
	}
	fmt.Println("\nOnlineTune adapts to the drifting transaction mix and growing data")
	fmt.Println("while respecting the safety threshold; BO conflates regimes and")
	fmt.Println("explores the unsafe region freely.")
}
