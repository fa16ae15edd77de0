// Command loadgen is the fleet-scale load-generation harness for the
// tuned server: a rate-limited worker pool drives many tuning sessions
// through the HTTP API (suggest → report per interval) and reports
// throughput, latency percentiles and the server's durability counters.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -sessions 50 -intervals 20 \
//	        -workers 8 -rate 200
//
// With -resume, sessions that already exist on the server are reused
// instead of failing creation — the kill-and-restart smoke test runs
// loadgen, kills the server mid-fleet, restarts it over the same state
// dir and resumes with a second loadgen invocation.
//
// With -assert-max-hydrated N, loadgen exits non-zero if the server's
// /healthz reports more than N hydrated sessions after the run — the
// CI check that LRU eviction actually bounds the working set.
//
// With -latency-json FILE, the run's percentiles, throughput and the
// server's durability counters (fsyncs, group commits) are written as
// JSON so CI and benchmarks assert on them without scraping stdout.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/tune"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "tuned server base URL")
	sessions := flag.Int("sessions", 50, "number of sessions to drive")
	intervals := flag.Int("intervals", 20, "suggest+report intervals per session")
	workers := flag.Int("workers", 8, "concurrent workers")
	rate := flag.Float64("rate", 0, "max intervals/sec across all workers (0 = unlimited)")
	space := flag.String("space", "case5", "knob space for created sessions")
	seed := flag.Int64("seed", 1, "base RNG seed (session i uses seed+i)")
	prefix := flag.String("prefix", "load", "session id prefix")
	resume := flag.Bool("resume", false, "reuse sessions that already exist (continue after a server restart)")
	assertMaxHydrated := flag.Int("assert-max-hydrated", -1, "fail unless /healthz reports at most this many hydrated sessions after the run (-1 = no assertion)")
	latencyJSON := flag.String("latency-json", "", "write machine-readable run results (latency percentiles, throughput, server durability counters) to this file")
	flag.Parse()

	g := &generator{
		client:  &http.Client{Timeout: 60 * time.Second},
		addr:    *addr,
		limiter: newLimiter(*rate),
	}

	// Create (or, with -resume, adopt) the fleet.
	created, resumed := 0, 0
	iters := make([]int, *sessions)
	for i := 0; i < *sessions; i++ {
		id := fmt.Sprintf("%s-%d", *prefix, i)
		status, body, err := g.post("/v1/sessions", map[string]any{
			"id": id, "config": tune.Config{Space: *space, Seed: *seed + int64(i)},
		})
		switch {
		case err != nil:
			fatal("creating %s: %v", id, err)
		case status == http.StatusCreated:
			created++
		case status == http.StatusConflict && *resume:
			// Adopt the existing session where it left off.
			var info tune.SessionInfo
			if err := g.get("/v1/sessions/"+id, &info); err != nil {
				fatal("resuming %s: %v", id, err)
			}
			iters[i] = info.Iter
			resumed++
		default:
			fatal("creating %s: status %d: %s", id, status, body)
		}
	}
	fmt.Printf("loadgen: %d sessions created, %d resumed\n", created, resumed)

	// Worker pool: each job is one suggest+report interval; a session
	// re-enters the queue until it has completed -intervals intervals
	// (resumed progress counts), so per-session ops stay sequential
	// while the fleet load is concurrent. pending counts queued-or-
	// running sessions: a requeue keeps it, retirement (completion or
	// failure) decrements it, and the worker that retires the last one
	// closes the queue — so the pool drains cleanly on errors too.
	jobs := make(chan int, *sessions)
	pending := 0
	for i := 0; i < *sessions; i++ {
		if iters[i] < *intervals {
			jobs <- i
			pending++
		}
	}
	if pending == 0 {
		close(jobs)
	}
	var (
		mu        sync.Mutex
		suggestMs []float64
		reportMs  []float64
		ops       int
	)
	retire := func() {
		mu.Lock()
		pending--
		last := pending == 0
		mu.Unlock()
		if last {
			close(jobs)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, *sessions+1)
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				id := fmt.Sprintf("%s-%d", *prefix, i)
				g.limiter.wait()

				t0 := time.Now()
				var adv tune.Advice
				if err := g.postJSON("/v1/sessions/"+id+"/suggest", nil, &adv); err != nil {
					errc <- fmt.Errorf("suggest %s: %w", id, err)
					retire()
					continue
				}
				dSuggest := time.Since(t0)

				t1 := time.Now()
				var rep struct {
					Iter int `json:"iter"`
				}
				if err := g.postJSON("/v1/sessions/"+id+"/report", outcome(iters[i]), &rep); err != nil {
					errc <- fmt.Errorf("report %s: %w", id, err)
					retire()
					continue
				}
				dReport := time.Since(t1)

				mu.Lock()
				iters[i] = rep.Iter
				ops++
				suggestMs = append(suggestMs, float64(dSuggest.Nanoseconds())/1e6)
				reportMs = append(reportMs, float64(dReport.Nanoseconds())/1e6)
				done := rep.Iter >= *intervals
				mu.Unlock()
				if done {
					retire()
				} else {
					jobs <- i
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		fatal("%v", err)
	default:
	}
	elapsed := time.Since(start)

	fmt.Printf("loadgen: %d intervals over %d sessions in %.2fs (%.1f intervals/sec)\n",
		ops, *sessions, elapsed.Seconds(), float64(ops)/math.Max(elapsed.Seconds(), 1e-9))
	fmt.Printf("  suggest latency ms: p50 %.2f  p95 %.2f  p99 %.2f\n",
		percentile(suggestMs, 50), percentile(suggestMs, 95), percentile(suggestMs, 99))
	fmt.Printf("  report  latency ms: p50 %.2f  p95 %.2f  p99 %.2f\n",
		percentile(reportMs, 50), percentile(reportMs, 95), percentile(reportMs, 99))

	var health healthCounters
	if err := g.get("/healthz", &health); err != nil {
		fatal("healthz: %v", err)
	}
	fmt.Printf("  server: %d sessions (%d hydrated, %d evicted), %d checkpoint bytes, %d fsyncs (%d group commits) this run\n",
		health.Sessions, health.Hydrated, health.Evicted, health.CheckpointBytes, health.Fsyncs, health.GroupCommits)
	if health.KnowledgeContributions > 0 || health.KnowledgeEntries > 0 {
		fmt.Printf("  knowledge: %d entries, %d contributions, %d warm starts, %d bytes\n",
			health.KnowledgeEntries, health.KnowledgeContributions, health.KnowledgeWarmStarts, health.KnowledgeBytes)
	}
	if *latencyJSON != "" {
		res := runResult{
			Sessions:        *sessions,
			Intervals:       ops,
			ElapsedSec:      elapsed.Seconds(),
			IntervalsPerSec: float64(ops) / math.Max(elapsed.Seconds(), 1e-9),
			Suggest:         latencySummary(suggestMs),
			Report:          latencySummary(reportMs),
			Server:          health,
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal("encoding -latency-json: %v", err)
		}
		if err := os.WriteFile(*latencyJSON, append(data, '\n'), 0o644); err != nil {
			fatal("writing %s: %v", *latencyJSON, err)
		}
		fmt.Printf("  results written to %s\n", *latencyJSON)
	}
	if *assertMaxHydrated >= 0 && health.Hydrated > *assertMaxHydrated {
		fatal("residency bound violated: %d sessions hydrated, asserted at most %d", health.Hydrated, *assertMaxHydrated)
	}
}

// healthCounters mirrors the /healthz fields loadgen consumes. The
// knowledge_* fields are present only when the server runs -knowledge.
type healthCounters struct {
	Sessions               int   `json:"sessions"`
	Hydrated               int   `json:"hydrated"`
	Evicted                int   `json:"evicted"`
	CheckpointBytes        int64 `json:"checkpoint_bytes"`
	Fsyncs                 int64 `json:"fsyncs"`
	GroupCommits           int64 `json:"group_commits"`
	DegradedCommits        int64 `json:"degraded_commits"`
	KnowledgeEntries       int64 `json:"knowledge_entries,omitempty"`
	KnowledgeContributions int64 `json:"knowledge_contributions,omitempty"`
	KnowledgeWarmStarts    int64 `json:"knowledge_warm_starts,omitempty"`
	KnowledgeBytes         int64 `json:"knowledge_bytes,omitempty"`
}

// runResult is the -latency-json document: everything CI needs to
// assert on a run without scraping stdout.
type runResult struct {
	Sessions        int            `json:"sessions"`
	Intervals       int            `json:"intervals"`
	ElapsedSec      float64        `json:"elapsed_sec"`
	IntervalsPerSec float64        `json:"intervals_per_sec"`
	Suggest         latencies      `json:"suggest_ms"`
	Report          latencies      `json:"report_ms"`
	Server          healthCounters `json:"server"`
}

type latencies struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

func latencySummary(ms []float64) latencies {
	return latencies{
		P50: percentile(ms, 50),
		P95: percentile(ms, 95),
		P99: percentile(ms, 99),
	}
}

// outcome fabricates a deterministic synthetic interval observation for
// iteration i. Deterministic bodies keep kill-and-restart runs
// replayable: a resumed fleet feeds each session the same history an
// uninterrupted run would have.
func outcome(i int) tune.Outcome {
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

// limiter is a token-bucket rate limit shared by all workers.
type limiter struct {
	mu     sync.Mutex
	next   time.Time
	period time.Duration
}

func newLimiter(rate float64) *limiter {
	if rate <= 0 {
		return &limiter{}
	}
	return &limiter{period: time.Duration(float64(time.Second) / rate), next: time.Now()}
}

func (l *limiter) wait() {
	if l.period == 0 {
		return
	}
	l.mu.Lock()
	now := time.Now()
	if l.next.Before(now) {
		l.next = now
	}
	at := l.next
	l.next = l.next.Add(l.period)
	l.mu.Unlock()
	time.Sleep(time.Until(at))
}

// percentile returns the p-th percentile of values (nearest-rank).
func percentile(values []float64, p float64) float64 {
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

type generator struct {
	client  *http.Client
	addr    string
	limiter *limiter
}

// post issues a POST and returns the raw status and body (for callers
// that branch on status, like resume-aware creation).
func (g *generator) post(path string, body any) (int, string, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, "", err
		}
	}
	resp, err := g.client.Post(g.addr+path, "application/json", &buf)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(bytes.TrimSpace(b)), nil
}

// postJSON issues a POST and decodes a 200 response into out.
func (g *generator) postJSON(path string, body, out any) error {
	status, b, err := g.post(path, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, b)
	}
	if out != nil {
		return json.Unmarshal([]byte(b), out)
	}
	return nil
}

func (g *generator) get(path string, out any) error {
	resp, err := g.client.Get(g.addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}
