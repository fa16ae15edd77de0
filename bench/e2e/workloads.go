package main

import (
	"fmt"
	"time"

	"repro/internal/workload"
	"repro/tune"
)

// spec defines one benchmark workload: the fleet, the serving stack it
// is driven through, and the deterministic schedule of measured
// intervals. Everything a lap does follows from the spec and the seed.
type spec struct {
	name string
	why  string

	sessions int
	space    string
	gen      func(seed int64) workload.Generator
	rollout  *tune.RolloutConfig

	// warmup is the number of intervals every session runs inside set-up,
	// right after its create, before the measured region.
	warmup int
	// schedule is the session index of every measured interval.
	schedule []int

	http bool // drive over loopback HTTP instead of calling the Manager
	mgr  tune.ManagerOptions

	// resident marks workloads whose sessions all stay hydrated, so the
	// recovered Session.Snapshot bytes must equal the pre-Close ones.
	resident bool
	// transfers requires the run to see the rollout and the knowledge
	// base at work: at least one promotion and one warm start.
	transfers bool
	// peel is how deep the traced run can peel the stack: sessions of a
	// knowledge-enabled manager see fleet advice only through the
	// manager's store, so they stop at the manager without persistence.
	peel int
}

const minLaps = 3

// Peel depths: how far below its manager the traced run can peel a
// workload's stack.
const (
	peelNoPersist = iota + 1 // tune.Manager with no state dir
	peelSession              // bare tune.Session
	peelTuner                // featurize.NewPretrained + tune.NewOnlineTuner
)

// roundRobin schedules n intervals for each of the sessions in turn.
func roundRobin(sessions, n int) []int {
	out := make([]int, 0, sessions*n)
	for i := 0; i < n; i++ {
		for j := 0; j < sessions; j++ {
			out = append(out, j)
		}
	}
	return out
}

// hotCold schedules ops intervals over a fleet whose first hot sessions
// take four intervals in five, round-robin, and whose remaining cold
// sessions share the fifth, round-robin: a working set larger than the
// residency bound with skew.
func hotCold(sessions, hot, ops int) []int {
	out := make([]int, ops)
	h, c := 0, 0
	for t := range out {
		if t%5 == 4 {
			out[t] = hot + c%(sessions-hot)
			c++
		} else {
			out[t] = h % hot
			h++
		}
	}
	return out
}

// hydrations counts the evict→hydrate round trips a schedule causes
// under an LRU residency bound when every session starts evicted in
// creation order (the state set-up leaves behind).
func hydrations(schedule []int, sessions, maxResident int) int {
	var lru []int // front = most recently used
	for j := sessions - maxResident; j < sessions; j++ {
		lru = append([]int{j}, lru...)
	}
	n := 0
	for _, j := range schedule {
		at := -1
		for i, v := range lru {
			if v == j {
				at = i
				break
			}
		}
		if at < 0 {
			n++
			lru = lru[:len(lru)-1]
		} else {
			lru = append(lru[:at], lru[at+1:]...)
		}
		lru = append([]int{j}, lru...)
	}
	return n
}

// workloads returns the benchmark's four workloads.
func workloads() []spec {
	return []spec{
		{
			name:     "fleet-young",
			why:      "Fleet size, young sessions over HTTP: serving layers (HTTP+JSON, create, encode, WAL, compaction) have their largest share, tuner compute its smallest.",
			sessions: 64, space: "case5",
			gen:      func(seed int64) workload.Generator { return workload.NewYCSB(seed) },
			schedule: roundRobin(64, 40),
			http:     true,
			mgr:      tune.ManagerOptions{MaxResident: -1, NoFsync: true},
			resident: true, peel: peelTuner,
		},
		{
			name:     "session-aged",
			why:      "Session age: two 40-knob sessions aged from 100 to 400 intervals, so tuner compute (hyperopt, recluster, SVM spikes) and replay-from-genesis recovery dominate; serving layers do little.",
			sessions: 2, space: "mysql57",
			gen:      func(seed int64) workload.Generator { return workload.NewDriftedTPCC(seed, 0.004) },
			warmup:   100,
			schedule: roundRobin(2, 300),
			mgr:      tune.ManagerOptions{MaxResident: -1, NoFsync: true},
			resident: true, peel: peelTuner,
		},
		{
			name:     "fleet-churn",
			why:      "Working set larger than residency with skew: 36 sessions, 16 resident, 12 hot; most busy time is evict-then-hydrate inside the gate, WAL and tuner do little.",
			sessions: 36, space: "case5",
			gen:      func(seed int64) workload.Generator { return workload.NewTwitter(seed, true) },
			warmup:   20,
			schedule: hotCold(36, 12, 500),
			mgr:      tune.ManagerOptions{MaxResident: 16, NoFsync: true},
			peel:     peelTuner,
		},
		{
			name:     "fleet-mixed",
			why:      "Same layers used differently: pg16 blue/green rollout with staged feedback, fleet knowledge base and the group-commit journal, so a gain for direct apply or per-log fsync that costs these shows.",
			sessions: 16, space: "pg16",
			gen:      func(seed int64) workload.Generator { return workload.NewRealWorld(seed) },
			rollout:  &tune.RolloutConfig{Mode: tune.RolloutModeBlueGreen},
			schedule: roundRobin(16, 100),
			mgr:      tune.ManagerOptions{MaxResident: -1, NoFsync: true, Knowledge: true, CommitInterval: -time.Nanosecond},
			resident: true, transfers: true, peel: peelNoPersist,
		},
	}
}

// findWorkload resolves a --workload name.
func findWorkload(name string) (spec, error) {
	var names []string
	for _, sp := range workloads() {
		if sp.name == name {
			return sp, nil
		}
		names = append(names, sp.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
