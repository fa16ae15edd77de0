// Command e2e is the repo's serving benchmark: it drives the real
// tune.Manager / tune.NewServer stack closed-loop, one client, against
// the internal/dbsim simulator, and reports end-to-end and per-layer
// metrics for four workloads. See README.md in this directory.
//
//	go run ./bench/e2e --workload fleet-young --seed 1 --seconds 20 --trace 0
//
// One run repeats the workload as identical laps and computes every
// wall-clock metric from the per-op minimum across laps; everything that
// can be counted instead of timed is counted, and must repeat exactly.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of the generators, the simulator and Config.Seed (session i uses seed+i)")
	seconds := flag.Float64("seconds", 20, "time budget for the laps of one workload; at least 3 laps run")
	trace := flag.Int("trace", 0, "1 runs the traced lap on peeled stacks and prints the per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the end-to-end metrics against their bounds")
	out := flag.String("out", filepath.Join("bench", "e2e", "out"), "directory for raw data, traces and state dirs")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace != 0, *selfcheck, *out); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced, selfcheck bool, out string) error {
	specs := workloads()
	if name != "all" {
		sp, err := findWorkload(name)
		if err != nil {
			return err
		}
		specs = []spec{sp}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	budget := time.Duration(seconds * float64(time.Second))
	if selfcheck {
		return selfCheck(specs, seed, budget, out)
	}
	laps := minLaps
	if traced {
		// The traced lap costs as much as one lap per peeled stack; two
		// ordinary laps before it are enough to check it against.
		laps, budget = 2, 0
	}
	for _, sp := range specs {
		r, err := runWorkload(sp, seed, budget, laps, traced, out)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		if err := r.print(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// result is what one run of one workload reports.
type result struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	StateRoot string      `json:"state_fs"`
	Digest    string      `json:"advice_digest"`
	Metrics   []metric    `json:"metrics"`
	Laps      []lapResult `json:"laps"`
}

// runWorkload runs identical laps of a workload until the budget is
// spent, at least laps of them, and aggregates. A traced run adds one lap
// on the peeled stacks and reports the per-layer metrics instead.
func runWorkload(sp spec, seed int64, budget time.Duration, laps int, traced bool, out string) (*result, error) {
	root := filepath.Join(out, "state", sp.name)
	start := time.Now()
	r := &result{Workload: sp.name, Seed: seed, StateRoot: root}
	for i := 0; ; i++ {
		l := newLap(sp, seed, root, nil)
		if err := l.run(); err != nil {
			return nil, fmt.Errorf("lap %d: %w", i, err)
		}
		r.Laps = append(r.Laps, l.res)
		// Stop once another lap of the usual length would overrun.
		spent := time.Since(start)
		if i+1 >= laps && spent+spent/time.Duration(i+1) > budget {
			break
		}
	}
	if err := checkLaps(sp, r.Laps); err != nil {
		return nil, err
	}
	r.Digest = r.Laps[0].Exact.Digest
	if traced {
		m, err := tracedLap(sp, seed, root, r.Laps, out)
		if err != nil {
			return nil, fmt.Errorf("traced lap: %w", err)
		}
		r.Metrics = m
	} else {
		r.Metrics = endToEnd(sp, r.Laps)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return r, os.WriteFile(filepath.Join(out, sp.name+".json"), data, 0o644)
}

// print writes one line per metric and, last, the JSON object the
// benchmark contract asks for.
func (r *result) print(w io.Writer) error {
	x := r.Laps[0].Exact
	fmt.Fprintf(w, "%s advice_digest %s laps %d\n", r.Workload, r.Digest, len(r.Laps))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: x.Failed == 0, Attempted: x.Attempted * len(r.Laps), Failed: x.Failed * len(r.Laps), Metrics: map[string]value{}}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, m.Name, m.Value, m.Unit)
		doc.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
