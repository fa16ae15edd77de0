// Command benchrunner regenerates the paper's tables and figures.
//
// Usage:
//
//	benchrunner -exp fig5tpcc              # one experiment at paper scale
//	benchrunner -exp table1 -iters 100     # shortened run
//	benchrunner -all -iters 120            # everything, shortened
//	benchrunner -all -workers 4            # bounded experiment concurrency
//	benchrunner -all -json out/            # persist BENCH_<exp>.json artifacts
//	benchrunner -exp ext5 -replicates 3    # multi-seed replicates (seed, seed+1, …)
//	benchrunner -list                      # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

// job is one (experiment, seed) run.
type job struct {
	id   string
	seed int64
	// replicate > 0 marks additional seeds; their JSON artifacts get a
	// seed suffix so the base BENCH_<exp>.json stays the canonical file.
	replicate int
}

// result is a finished job, printed in submission order.
type result struct {
	job     job
	rep     bench.Report
	wall    time.Duration
	jsonOut string
	err     error
}

func main() {
	exp := flag.String("exp", "", "experiment id (see -list)")
	iters := flag.Int("iters", 0, "override iteration count (0 = paper setting)")
	seed := flag.Int64("seed", 1, "random seed")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiment ids")
	workers := flag.Int("workers", runtime.NumCPU(), "max experiments running concurrently (use 1 when the timing fields of -json artifacts matter: concurrent experiments contend for cores)")
	replicates := flag.Int("replicates", 1, "replicate each experiment across N consecutive seeds")
	jsonDir := flag.String("json", "", "directory to persist BENCH_<exp>.json artifacts (empty = off)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.ExperimentIDs(), "\n"))
		return
	}
	ids := []string{*exp}
	if *all {
		ids = bench.ExperimentIDs()
	} else if *exp == "" {
		fmt.Fprintln(os.Stderr, "need -exp <id>, -all or -list")
		os.Exit(2)
	}
	if *replicates < 1 {
		*replicates = 1
	}
	if *jsonDir != "" {
		// Validate the artifact directory up front — create it if
		// missing, and fail before burning experiment time if it is
		// unwritable.
		if err := bench.EnsureArtifactDir(*jsonDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
	}

	var jobs []job
	for _, id := range ids {
		for r := 0; r < *replicates; r++ {
			jobs = append(jobs, job{id: id, seed: *seed + int64(r), replicate: r})
		}
	}

	results := make([]result, len(jobs))
	nw := *workers
	if nw < 1 {
		nw = 1
	}
	if nw > len(jobs) {
		nw = len(jobs)
	}
	// Bounded worker pool over the job list. Each experiment seeds its own
	// generators and featurizer, so jobs share no mutable state; results
	// land in disjoint slots. Reports stream out in submission order as
	// soon as the next-expected job finishes, so long -all runs show
	// progress and an interrupted run keeps everything completed so far.
	next := make(chan int)
	done := make(chan int)
	for g := 0; g < nw; g++ {
		go func() {
			for ji := range next {
				results[ji] = runJob(jobs[ji], *iters, *jsonDir)
				done <- ji
			}
		}()
	}
	go func() {
		for ji := range jobs {
			next <- ji
		}
		close(next)
	}()

	ready := make([]bool, len(jobs))
	printed := 0
	failed := false
	for range jobs {
		ready[<-done] = true
		for printed < len(jobs) && ready[printed] {
			res := results[printed]
			printed++
			if res.err != nil {
				fmt.Fprintln(os.Stderr, "error:", res.err)
				failed = true
				continue
			}
			fmt.Printf("=== %s — %s (seed %d, %.1fs)\n%s\n", res.rep.ID, res.rep.Title, res.job.seed, res.wall.Seconds(), res.rep.Body)
			if res.jsonOut != "" {
				fmt.Printf("wrote %s\n\n", res.jsonOut)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runJob executes one experiment run and optionally persists its JSON
// artifact.
func runJob(j job, iters int, jsonDir string) result {
	start := time.Now()
	rep, err := bench.Experiment(j.id, iters, j.seed)
	res := result{job: j, rep: rep, wall: time.Since(start), err: err}
	if err != nil || jsonDir == "" {
		return res
	}
	art := bench.NewArtifact(rep, iters, j.seed, res.wall)
	res.jsonOut, res.err = bench.WriteJSON(jsonDir, art, j.replicate > 0)
	return res
}
