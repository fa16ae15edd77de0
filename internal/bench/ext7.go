package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/tune"
)

// ext7FsyncTarget is the headline claim gated by benchguard: serving a
// fleet with cross-session group commit must issue at least this many
// times fewer fsyncs than per-session-fsync durability.
const ext7FsyncTarget = 3.0

const (
	ext7Fleet   = 256                  // sessions (≥256: the fleet-scale regime)
	ext7Workers = 24                   // concurrent session drivers per arm
	ext7Window  = 3 * time.Millisecond // group-commit batch window
)

// Ext7GroupCommit measures the serving hot path's durability cost at
// fleet scale: 256 concurrently driven sessions (suggest+report per
// interval, real fsyncs) under cross-session group commit versus the
// per-session-fsync ablation. Fsync counts are exact (the manager's
// sync-point counter); suggest latency percentiles and intervals/sec
// are reported per arm; and every piece of advice is compared
// bit-for-bit against an uninterrupted in-memory reference fleet, so a
// batching or off-lock bug that perturbs replay shows up as unsafe
// divergence, not just slowness.
//
// The gated series is a step function — 1 iff the fsync reduction meets
// ext7FsyncTarget with zero divergence in either arm — because raw
// batch counts are timing-dependent: the reduction lands anywhere well
// above the target depending on machine speed, and gating the step
// keeps the guard deterministic while the raw ratio stays visible in
// the table. CI runs this experiment through benchrunner -replicates
// and gates the median, so one slow-machine outlier cannot flake the
// build.
func Ext7GroupCommit(iters int, seed int64) Report {
	if iters < 2 {
		iters = 2
	}

	// Reference fleet: uninterrupted, in-memory sessions. Ground truth
	// for both durable arms; deterministic per seed, so concurrent
	// drivers don't perturb it.
	refAdvice := make([][]tune.Advice, ext7Fleet)
	if err := ext7Drive(func(j int) error {
		s, err := tune.NewSession(tune.Config{Space: "case5", Seed: seed + int64(j)})
		if err != nil {
			return fmt.Errorf("reference session: %w", err)
		}
		advs := make([]tune.Advice, 0, iters)
		for i := 0; i < iters; i++ {
			adv, err := s.Suggest(context.Background())
			if err != nil {
				return fmt.Errorf("reference suggest: %w", err)
			}
			advs = append(advs, adv)
			if err := s.Report(ext7Outcome(i)); err != nil {
				return fmt.Errorf("reference report: %w", err)
			}
		}
		refAdvice[j] = advs
		return nil
	}); err != nil {
		return ext7Failure(err)
	}

	group := ext7RunArm("GroupCommit-Fleet", iters, seed, refAdvice, tune.ManagerOptions{
		MaxResident:    -1,
		CommitInterval: ext7Window,
	})
	if group.err != nil {
		return ext7Failure(group.err)
	}
	ablation := ext7RunArm("PerSessionFsync-Fleet", iters, seed, refAdvice, tune.ManagerOptions{
		MaxResident: -1,
	})
	if ablation.err != nil {
		return ext7Failure(ablation.err)
	}

	ratio := 0.0
	if group.fsyncs > 0 {
		ratio = float64(ablation.fsyncs) / float64(group.fsyncs)
	}
	clean := group.divergences == 0 && ablation.divergences == 0 &&
		group.failures == 0 && ablation.failures == 0
	step := 0.0
	if ratio >= ext7FsyncTarget && clean {
		step = 1
	}
	gate := &Series{
		Name:     "GroupCommit-FsyncGate",
		Perf:     []float64{step},
		Tau:      []float64{1},
		Cum:      []float64{step},
		Unsafe:   group.divergences + ablation.divergences,
		Failures: group.failures + ablation.failures,
	}

	t := NewTable("arm", "fsyncs", "group_commits", "degraded", "suggest_p50_ms",
		"suggest_p95_ms", "suggest_p99_ms", "intervals_per_sec", "divergent_advice", "failures")
	for _, ar := range []*ext7Arm{group, ablation} {
		t.Add(ar.series.Name, ar.fsyncs, ar.groupCommits, ar.degraded,
			ext7Percentile(ar.suggestMs, 50), ext7Percentile(ar.suggestMs, 95),
			ext7Percentile(ar.suggestMs, 99), ar.intervalsPerSec(), ar.divergences, ar.failures)
	}

	gp99, ap99 := ext7Percentile(group.suggestMs, 99), ext7Percentile(ablation.suggestMs, 99)
	var verdict string
	switch {
	case !clean:
		verdict = fmt.Sprintf(
			"REGRESSION: %d group-commit and %d ablation advice divergence(s) (+%d failures) from the uninterrupted reference — the off-lock/batching path broke replay equivalence.",
			group.divergences, ablation.divergences, gate.Failures)
	case step == 1 && gp99 <= ap99:
		verdict = fmt.Sprintf(
			"Cross-session group commit served %d sessions with %.1fx fewer fsyncs (%d vs %d) and better p99 suggest latency (%.2f vs %.2f ms) than per-session fsyncs, at zero advice divergence — the whole batch window's durability costs one journal fsync.",
			ext7Fleet, ratio, group.fsyncs, ablation.fsyncs, gp99, ap99)
	case step == 1:
		verdict = fmt.Sprintf(
			"Cross-session group commit served %d sessions with %.1fx fewer fsyncs (%d vs %d) at zero advice divergence; p99 suggest latency %.2f vs %.2f ms (batch-window wait vs contended per-session fsyncs — the gap closes as storage slows).",
			ext7Fleet, ratio, group.fsyncs, ablation.fsyncs, gp99, ap99)
	default:
		verdict = fmt.Sprintf(
			"Group commit reduced fsyncs only %.1fx (%d vs %d), below the %gx target — batching is not coalescing across sessions.",
			ratio, group.fsyncs, ablation.fsyncs, ext7FsyncTarget)
	}

	return Report{
		ID:    "ext7",
		Title: "Extension: serving hot path — cross-session fsync group commit vs per-session fsyncs",
		Body:  t.String() + "\n" + verdict + "\n",
		Series: []*Series{
			gate, group.series, ablation.series,
		},
	}
}

// ext7Arm is one durable arm's run record.
type ext7Arm struct {
	series       *Series // per-interval fleet fidelity (matched fraction)
	fsyncs       int64
	groupCommits int64
	degraded     int64
	suggestMs    []float64
	wall         time.Duration
	ops          int
	divergences  int
	failures     int
	err          error
}

func (a *ext7Arm) intervalsPerSec() float64 {
	return float64(a.ops) / math.Max(a.wall.Seconds(), 1e-9)
}

// ext7RunArm drives the fleet through a Manager with the given options:
// concurrent session drivers, real fsyncs into a temp state dir, advice
// checked against the reference stream.
func ext7RunArm(name string, iters int, seed int64, refAdvice [][]tune.Advice, opts tune.ManagerOptions) *ext7Arm {
	ar := &ext7Arm{series: &Series{Name: name}}
	fail := func(err error) *ext7Arm { ar.err = err; return ar }
	dir, err := os.MkdirTemp("", "ext7-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	m, err := tune.NewManagerOpts(dir, opts)
	if err != nil {
		return fail(err)
	}
	defer func() { m.Close() }()
	id := func(j int) string { return fmt.Sprintf("fleet-%d", j) }

	if err := ext7Drive(func(j int) error {
		_, err := m.Create(id(j), tune.Config{Space: "case5", Seed: seed + int64(j)})
		return err
	}); err != nil {
		return fail(err)
	}

	var mu sync.Mutex
	matched := make([]int, iters)
	start := time.Now()
	if err := ext7Drive(func(j int) error {
		latencies := make([]float64, 0, iters)
		var localMatched []int
		localDiv, localFail, localOps := 0, 0, 0
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			adv, err := m.Suggest(context.Background(), id(j))
			if err != nil {
				localFail++
				continue
			}
			latencies = append(latencies, float64(time.Since(t0).Nanoseconds())/1e6)
			if reflect.DeepEqual(adv, refAdvice[j][i]) {
				localMatched = append(localMatched, i)
			} else {
				localDiv++
			}
			if _, err := m.Report(id(j), ext7Outcome(i)); err != nil {
				localFail++
			}
			localOps++
		}
		mu.Lock()
		ar.suggestMs = append(ar.suggestMs, latencies...)
		for _, i := range localMatched {
			matched[i]++
		}
		ar.divergences += localDiv
		ar.failures += localFail
		ar.ops += localOps
		mu.Unlock()
		return nil
	}); err != nil {
		return fail(err)
	}
	ar.wall = time.Since(start)

	st := m.Stats()
	ar.fsyncs = st.Fsyncs
	ar.groupCommits = st.GroupCommits
	ar.degraded = st.DegradedCommits

	s := ar.series
	cum := 0.0
	for i := 0; i < iters; i++ {
		frac := float64(matched[i]) / ext7Fleet
		cum += frac
		s.Perf = append(s.Perf, frac)
		s.Tau = append(s.Tau, 1) // perfect fidelity
		s.Cum = append(s.Cum, cum)
	}
	s.Unsafe = ar.divergences
	s.Failures = ar.failures
	return ar
}

// ext7Drive runs fn(j) for every session index on a bounded worker
// pool and returns the first error.
func ext7Drive(fn func(j int) error) error {
	var wg sync.WaitGroup
	sem := make(chan struct{}, ext7Workers)
	errs := make([]error, ext7Fleet)
	for j := 0; j < ext7Fleet; j++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(j int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[j] = fn(j)
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ext7Percentile returns the p-th percentile (nearest-rank) of values.
func ext7Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// ext7Failure reports a harness-level failure as a failing artifact
// rather than panicking the runner.
func ext7Failure(err error) Report {
	s := &Series{Name: "GroupCommit-FsyncGate", Failures: 1}
	return Report{
		ID:     "ext7",
		Title:  "Extension: serving hot path — cross-session fsync group commit vs per-session fsyncs",
		Body:   fmt.Sprintf("harness failure: %v\n", err),
		Series: []*Series{s},
	}
}

// ext7Outcome fabricates the deterministic synthetic interval
// observation for iteration i (the same shape cmd/loadgen feeds the
// server), so both durable arms and the in-memory reference see
// byte-identical histories.
func ext7Outcome(i int) tune.Outcome {
	return tune.Outcome{
		Workload: tune.Workload{
			Statements: []tune.Statement{
				{SQL: "SELECT c_balance FROM customer WHERE c_id = 42", Weight: 3},
				{SQL: "UPDATE warehouse SET w_ytd = w_ytd + 7 WHERE w_id = 1", Weight: 1},
			},
			Unlimited: true,
			ReadFrac:  0.75,
			Skew:      0.5,
			DataGB:    18,
		},
		Stats:       tune.OptimizerStats{RowsExamined: 120, FilterPct: 30, IndexUsedFrac: 1},
		Metrics:     tune.Metrics{BufferPoolHitRate: 0.96, QPS: 20000 + float64(i)*100},
		Performance: 20000 + float64(i)*100,
		Baseline:    20000,
	}
}
