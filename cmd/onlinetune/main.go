// Command onlinetune runs the OnlineTune tuner (or a baseline) against
// the simulated cloud database on a chosen workload schedule, streaming
// per-iteration results and writing the observation repository to disk.
// -tuner picks one of bench.StandardTuners by name.
//
// Usage:
//
//	onlinetune -workload tpcc -iters 200
//	onlinetune -workload ycsb -space case5 -tuner BO
//	onlinetune -workload cycle -iters 400 -repo obs.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/workload"
	"repro/tune"
)

func main() {
	wl := flag.String("workload", "tpcc", "workload: tpcc, twitter, job, ycsb, realworld, cycle")
	spaceName := flag.String("space", "mysql57", "knob space: "+strings.Join(tune.Spaces(), ", "))
	tunerName := flag.String("tuner", "OnlineTune", "tuner: OnlineTune, BO, DDPG, ResTune, QTune, MysqlTuner, MysqlDefault or DBADefault")
	iters := flag.Int("iters", 200, "tuning iterations")
	seed := flag.Int64("seed", 1, "random seed")
	interval := flag.Float64("interval", 180, "interval length in seconds")
	repoPath := flag.String("repo", "", "write the observation repository (JSON) here")
	every := flag.Int("print-every", 10, "print progress every N iterations")
	flag.Parse()

	var gen workload.Generator
	switch *wl {
	case "tpcc":
		gen = workload.NewTPCC(*seed, true)
	case "twitter":
		gen = workload.NewTwitter(*seed, true)
	case "job":
		gen = workload.NewJOB(*seed, true)
	case "ycsb":
		gen = workload.NewYCSB(*seed)
	case "realworld":
		gen = workload.NewRealWorld(*seed)
	case "cycle":
		gen = workload.NewAlternate(workload.NewTPCC(*seed, true), workload.NewJOB(*seed+1, true), 100)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}

	space, err := tune.OpenSpace(*spaceName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	feat := bench.NewFeaturizer(*seed)
	var tn tune.Tuner
	for _, t := range bench.StandardTuners(space, feat.Dim(), *seed) {
		if t.Name() == *tunerName {
			tn = t
		}
	}
	if tn == nil {
		fmt.Fprintf(os.Stderr, "unknown tuner %q\n", *tunerName)
		os.Exit(2)
	}

	fmt.Printf("tuning %s on %s (%d knobs, %d iterations, %.0fs intervals)\n",
		*wl, tn.Name(), space.Dim(), *iters, *interval)
	s := bench.Run(tn, bench.RunConfig{
		Space: space, Gen: gen, Iters: *iters, Seed: *seed,
		IntervalSec: *interval, Feat: feat,
	})
	for i := 0; i < *iters; i += *every {
		fmt.Printf("iter %4d  perf %12.1f  tau %12.1f  cum %14.1f\n", i, s.Perf[i], s.Tau[i], s.Cum[i])
	}
	fmt.Printf("\ncumulative %.4g  (DBA-threshold cumulative %.4g)\n", s.CumFinal(), sum(s.Tau))
	fmt.Printf("unsafe recommendations: %d / %d   system failures: %d\n", s.Unsafe, *iters, s.Failures)

	if *repoPath != "" {
		if ot, ok := tn.(*tune.OnlineTuner); ok {
			if err := ot.T.Repo.Save(*repoPath); err != nil {
				fmt.Fprintln(os.Stderr, "saving repository:", err)
				os.Exit(1)
			}
			fmt.Println("observation repository written to", *repoPath)
		} else {
			fmt.Fprintln(os.Stderr, "-repo only applies to the OnlineTune tuner")
		}
	}
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
