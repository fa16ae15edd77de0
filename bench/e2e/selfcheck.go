package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// contract is the part of BENCHMARK.json the benchmark reads back: the
// metric names it must print and the bound of each end-to-end metric.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(path string) (contract, error) {
	var c contract
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(data, &c)
}

// selfCheck is the A/A test: it runs every workload twice with the same
// code and seed and compares each end-to-end metric of the second run
// with the first against the metric's bound. Two runs of one binary
// should differ by far less; a breach means the benchmark, not the
// system, is too noisy for that bound.
func selfCheck(specs []spec, seed int64, budget time.Duration, out string) error {
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		return err
	}
	breaches := 0
	for _, sp := range specs {
		var runs [2]map[string]float64
		for i := range runs {
			r, err := runWorkload(sp, seed, budget, minLaps, false, out)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			runs[i] = map[string]float64{}
			for _, m := range r.Metrics {
				runs[i][m.Name] = m.Value
			}
		}
		for _, e := range c.EndToEnd {
			a, b := runs[0][e.Name], runs[1][e.Name]
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := "ok"
			if diff > e.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%s %s %v %v diff %.4f bound %.4f %s\n", sp.name, e.Name, a, b, diff, e.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) differed between two runs of the same code by more than their bound", breaches)
	}
	return nil
}
