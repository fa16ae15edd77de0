package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/dbsim"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/tune"
)

// layout maps the deterministic schedule of one lap onto op indices.
// Every timed call is an op; laps of one run share the layout, so op i
// of one lap is the same call on the same state as op i of another.
type layout struct {
	sessions, warmup, measured int
}

// Set-up is op 0, opening the stack, then one block per session: its
// create followed by its warm-up intervals.
func (l layout) create(j int) int { return 1 + j*(1+2*l.warmup) }
func (l layout) warmEnd() int     { return l.create(l.sessions) }
func (l layout) suggest(t int) int {
	return l.warmEnd() + 2*t
}
func (l layout) report(t int) int { return l.suggest(t) + 1 }
func (l layout) reopen() int      { return l.warmEnd() + 2*l.measured }
func (l layout) get(j int) int    { return l.reopen() + 1 + j }
func (l layout) total() int       { return l.reopen() + 1 + l.sessions }

func (sp spec) layout() layout {
	return layout{sessions: sp.sessions, warmup: sp.warmup, measured: len(sp.schedule)}
}

// exact holds everything a lap counts instead of timing. Laps of one run
// must agree on all of it bit for bit; any difference fails the run.
type exact struct {
	Digest string `json:"advice_digest"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`

	DiskBytes    int64 `json:"disk_bytes"`
	WALBytes     int64 `json:"wal_bytes"`
	Fsyncs       int64 `json:"fsyncs"`
	Hydrations   int64 `json:"hydrations"`
	Evictions    int64 `json:"evictions"`
	Compactions  int64 `json:"compactions"`
	GroupCommits int64 `json:"group_commits"`
	WireBytes    int64 `json:"wire_bytes"`

	// TunedSum is Σ performance ÷ τ over measured intervals and Safe the
	// number of those neither failed nor below 0.95 τ.
	TunedSum float64 `json:"tuned_sum"`
	Safe     int     `json:"safe"`

	Promotions  int `json:"promotions"`
	Rollbacks   int `json:"rollbacks"`
	Switchovers int `json:"switchovers"`

	KnowledgeEntries int64 `json:"knowledge_entries"`
	WarmStarts       int64 `json:"warm_starts"`

	Events        int   `json:"events"`
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// WALRecords and WALTailBytes describe the session logs Close left
	// behind: the records since each session's last compaction.
	WALRecords   int   `json:"wal_records"`
	WALTailBytes int64 `json:"wal_tail_bytes"`
}

// lapResult is the raw data of one lap.
type lapResult struct {
	// NS is the duration of every op on every stack, [stack][op]; an
	// untraced lap has one stack.
	NS    [][]int64 `json:"ns"`
	Exact exact     `json:"exact"`

	HeapBytes uint64 `json:"heap_bytes"`
	// The rest covers the measured region only.
	WallNS     int64  `json:"wall_ns"`
	SimNS      int64  `json:"sim_ns"`
	CPUNS      int64  `json:"cpu_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCCycles   uint32 `json:"gc_cycles"`
	// WALScanNS is the time wal.Open took to scan every session log
	// after Close.
	WALScanNS int64 `json:"wal_scan_ns"`
}

// tenant is one tuned database: the client side of a session.
type tenant struct {
	id      string
	cfg     tune.Config
	gen     workload.Generator
	primary *dbsim.Instance
	staged  *dbsim.Instance
	iter    int // acked intervals
}

// lap drives one lap of a workload. With more than one stack (the traced
// run) every op executes on each in lock-step: stack 0 is the workload's
// own, the advice it returns produces the outcomes all stacks are fed,
// and every stack must return the same advice.
type lap struct {
	sp   spec
	seed int64
	root string // state dirs live under here
	lay  layout

	stacks  []stack
	tenants []*tenant
	res     lapResult
	digest  hash.Hash
	tr      *tracer // nil unless traced
	// firstSnapshot is the first session's snapshot after recovery, kept
	// by a traced lap for the leaf-layer timings.
	firstSnapshot []byte
}

func newLap(sp spec, seed int64, root string, tr *tracer) *lap {
	return &lap{sp: sp, seed: seed, root: root, lay: sp.layout(), digest: sha256.New(), tr: tr}
}

func (l *lap) dir(k int) string { return filepath.Join(l.root, fmt.Sprintf("s%d", k)) }

// run executes the lap and leaves its raw data in l.res.
func (l *lap) run() (err error) {
	if err := os.RemoveAll(l.root); err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(l.root); err == nil {
			err = rerr
		}
	}()
	runtime.GC()
	if err := l.setUp(); err != nil {
		l.closeStacks()
		return fmt.Errorf("set-up: %w", err)
	}
	if err := l.measure(); err != nil {
		l.closeStacks()
		return fmt.Errorf("measured region: %w", err)
	}
	before, err := l.beforeClose()
	if err != nil {
		l.closeStacks()
		return err
	}
	if err := l.closeStacks(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := l.recover(before); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	l.res.Exact.Digest = hex.EncodeToString(l.digest.Sum(nil))[:16]
	return nil
}

// timed runs call on every stack, recording one op.
func (l *lap) timed(op int, call func(k int, s stack) error) error {
	for k, s := range l.stacks {
		t0 := time.Now()
		err := call(k, s)
		l.record(k, s, op, t0, time.Now())
		if err != nil {
			return fmt.Errorf("%s: %w", s.layer(), err)
		}
	}
	return nil
}

// record stores stack k's duration for an op and, in a traced lap, its
// span.
func (l *lap) record(k int, s stack, op int, t0, t1 time.Time) {
	l.res.NS[k][op] = t1.Sub(t0).Nanoseconds()
	if l.tr != nil {
		l.tr.op(k, s, op, t0, t1)
	}
}

// openers returns what opens each stack of the lap: the workload's own
// and, in a traced lap, the peeled ones down to the workload's depth.
func (l *lap) openers() []func() (stack, error) {
	opens := []func() (stack, error){func() (stack, error) {
		if l.sp.http {
			return openHTTP(l.dir(0), l.sp.mgr)
		}
		ms, err := openManager("manager", l.dir(0), l.sp.mgr)
		if err == nil && l.tr != nil && l.sp.mgr.MaxResident > 0 {
			ms.splitHydrate = true
		}
		return ms, err
	}}
	if l.tr == nil {
		return opens
	}
	if l.sp.http {
		opens = append(opens, func() (stack, error) { return openManager("manager", l.dir(1), l.sp.mgr) })
	}
	if l.sp.peel >= peelNoPersist {
		opens = append(opens, func() (stack, error) { return openManager("manager-nopersist", "", l.sp.mgr) })
	}
	if l.sp.peel >= peelSession {
		opens = append(opens, func() (stack, error) { return &sessionStack{sessions: map[string]*tune.Session{}}, nil })
	}
	if l.sp.peel >= peelTuner {
		opens = append(opens, func() (stack, error) { return &tunerStack{tuners: map[string]*bareTuner{}}, nil })
	}
	return opens
}

// setUp opens the stacks, creates the fleet and runs the warm-up
// intervals: the ops setup_s sums.
func (l *lap) setUp() error {
	opens := l.openers()
	l.res.NS = make([][]int64, len(opens))
	for k, open := range opens {
		l.res.NS[k] = make([]int64, l.lay.total())
		t0 := time.Now()
		s, err := open()
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("opening stack %d: %w", k, err)
		}
		l.stacks = append(l.stacks, s)
		l.record(k, s, 0, t0, t1)
	}

	space, err := tune.OpenSpace(l.sp.space)
	if err != nil {
		return err
	}
	for j := 0; j < l.sp.sessions; j++ {
		seed := l.seed + int64(j)
		t := &tenant{
			id:      fmt.Sprintf("db-%03d", j),
			cfg:     tune.Config{Space: l.sp.space, Seed: seed, Rollout: l.sp.rollout},
			gen:     l.sp.gen(seed),
			primary: dbsim.New(space, seed),
			staged:  dbsim.New(space, seed+1000),
		}
		l.tenants = append(l.tenants, t)
		op := l.lay.create(j)
		if err := l.timed(op, func(_ int, s stack) error { return s.create(t.id, t.cfg) }); err != nil {
			return fmt.Errorf("create %s: %w", t.id, err)
		}
		// A session warms up right after its create, while it is resident
		// whatever the residency bound.
		for i := 0; i < l.sp.warmup; i++ {
			if err := l.interval(t, op+1+2*i, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// manager returns the tune.Manager under the workload's own stack.
func (l *lap) manager() *tune.Manager {
	if s, ok := l.stacks[0].(*httpStack); ok {
		return s.m
	}
	return l.stacks[0].(*managerStack).m
}

// wire returns the body bytes the workload's own stack has put on the
// wire, 0 in process.
func (l *lap) wire() int64 {
	if s, ok := l.stacks[0].(*httpStack); ok {
		return s.wire
	}
	return 0
}

func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// measure runs the scheduled intervals between two readings of every
// counter.
func (l *lap) measure() error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := l.manager().Stats()
	wire0 := l.wire()
	cpu0 := cpuTime()
	start := time.Now()
	for t, j := range l.sp.schedule {
		if err := l.interval(l.tenants[j], l.lay.suggest(t), &l.res.Exact); err != nil {
			return err
		}
	}
	l.res.WallNS = time.Since(start).Nanoseconds()
	l.res.CPUNS = cpuTime() - cpu0
	c1 := l.manager().Stats()
	runtime.ReadMemStats(&m1)
	l.res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	l.res.Mallocs = m1.Mallocs - m0.Mallocs
	l.res.GCCycles = m1.NumGC - m0.NumGC

	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so what remains is live.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	l.res.HeapBytes = m1.HeapAlloc

	x := &l.res.Exact
	x.WALBytes = c1.CheckpointBytes - c0.CheckpointBytes
	x.Fsyncs = c1.Fsyncs - c0.Fsyncs
	x.Hydrations = c1.Hydrations - c0.Hydrations
	x.Evictions = c1.Evictions - c0.Evictions
	x.Compactions = c1.Compactions - c0.Compactions
	x.GroupCommits = c1.GroupCommits - c0.GroupCommits
	x.WireBytes = l.wire() - wire0
	if k := c1.Knowledge; k != nil {
		x.KnowledgeEntries = int64(k.Entries)
		x.WarmStarts = k.WarmStarts
	}
	return nil
}

// interval runs one tuning interval of a tenant: suggest (op), simulate
// the advised configuration, report (op+1). The simulator and outcome
// construction run between the timed calls. A call the workload's own
// stack refuses counts as failed and ends the interval; tally is nil
// during warm-up.
func (l *lap) interval(t *tenant, op int, tally *exact) error {
	s0 := time.Now()
	w := t.gen.At(t.iter)
	dba := t.primary.DBAResult(w)
	tau := dba.Objective(w.OLAP)
	sim := time.Since(s0)

	var adv tune.Advice
	if tally != nil {
		tally.Attempted++
	}
	err := l.timed(op, func(k int, s stack) error {
		a, err := s.suggest(t.id)
		if err != nil {
			return err
		}
		if k == 0 {
			adv = a
			return nil
		}
		return sameAdvice(adv, a)
	})
	if err != nil {
		return l.refused(tally, fmt.Errorf("suggest %s at interval %d: %w", t.id, t.iter, err))
	}
	l.hashAdvice(adv)

	s0 = time.Now()
	opt := dbsim.EvalOptions{}
	if adv.RolloutPhase == tune.RolloutSwitchover {
		opt.SwitchoverColdSec = dbsim.DefaultSwitchoverColdSec
	}
	res := t.primary.Eval(adv.Config, w, opt)
	o := tune.Outcome{
		Workload:     tune.WorkloadFromSnapshot(w),
		Stats:        t.primary.OptimizerStats(w),
		Metrics:      res.Metrics,
		Performance:  res.Objective(w.OLAP),
		Baseline:     tau,
		P99LatencyMs: res.P99LatencyMs,
		Failed:       res.Failed,
	}
	if ref, ok := adv.Targets[tune.RoleStaged]; ok {
		sres := t.staged.Eval(ref.Config, w, dbsim.EvalOptions{})
		o.Measurements = map[tune.Role]tune.ReplicaPerf{
			tune.RolePrimary: {Performance: o.Performance, Failed: o.Failed},
			tune.RoleStaged:  {Performance: sres.Objective(w.OLAP), Failed: sres.Failed},
		}
	}
	sim += time.Since(s0)

	if tally != nil {
		tally.Attempted++
		l.res.SimNS += sim.Nanoseconds()
	}
	if err := l.timed(op+1, func(_ int, s stack) error { return s.report(t.id, o) }); err != nil {
		return l.refused(tally, fmt.Errorf("report %s at interval %d: %w", t.id, t.iter, err))
	}
	t.iter++
	if tally != nil {
		tally.TunedSum += o.Performance / tau
		if !o.Failed && o.Performance >= 0.95*tau {
			tally.Safe++
		}
	}
	return nil
}

// refused accounts for a failed call. Outside the measured region, or
// on a traced lap, where a peeled stack may be the one that failed, the
// lap cannot go on.
func (l *lap) refused(tally *exact, err error) error {
	if tally == nil || len(l.stacks) > 1 {
		return err
	}
	tally.Failed++
	fmt.Fprintln(os.Stderr, "e2e:", err)
	return nil
}

// sameAdvice reports how a peeled stack's advice differs from the
// workload's own.
func sameAdvice(want, got tune.Advice) error {
	if !sameBits(want.Unit, got.Unit) {
		return fmt.Errorf("advice diverged at iter %d: unit %v, own stack advised %v", want.Iter, got.Unit, want.Unit)
	}
	if got.Targets != nil && !sameBits(want.Targets[tune.RoleStaged].Unit, got.Targets[tune.RoleStaged].Unit) {
		return fmt.Errorf("staged advice diverged at iter %d", want.Iter)
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (l *lap) hashAdvice(adv tune.Advice) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		l.digest.Write(buf[:])
	}
	put(uint64(adv.Iter))
	for _, u := range adv.Unit {
		put(math.Float64bits(u))
	}
	l.digest.Write([]byte(adv.RolloutPhase))
	for _, u := range adv.Targets[tune.RoleStaged].Unit {
		put(math.Float64bits(u))
	}
}

// beforeClose records what recovery must reproduce: for fully resident
// workloads the snapshot of every session, and the rollout decisions the
// fleet made.
func (l *lap) beforeClose() (map[string][32]byte, error) {
	if !l.sp.resident {
		return nil, nil
	}
	m := l.manager()
	snaps := make(map[string][32]byte, len(l.tenants))
	for _, t := range l.tenants {
		data, err := m.Snapshot(t.id)
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", t.id, err)
		}
		snaps[t.id] = sha256.Sum256(data)
		if l.sp.rollout != nil {
			st, err := m.Rollout(t.id)
			if err != nil {
				return nil, fmt.Errorf("rollout %s: %w", t.id, err)
			}
			l.res.Exact.Promotions += st.Promotions
			l.res.Exact.Rollbacks += st.Rollbacks
			l.res.Exact.Switchovers += st.Metrics.Switchovers
		}
	}
	return snaps, nil
}

func (l *lap) closeStacks() error {
	var first error
	for _, s := range l.stacks {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	l.stacks = nil
	return first
}

// recover reopens the manager on the lap's state dir and hydrates every
// session: the ops recover_s sums. Each recovered session must stand at
// its acked interval count and, where before holds its pre-Close
// snapshot, serialize to the same bytes.
func (l *lap) recover(before map[string][32]byte) error {
	var err error
	if l.res.Exact.DiskBytes, err = dirBytes(l.dir(0)); err != nil {
		return err
	}
	for _, t := range l.tenants {
		t0 := time.Now()
		lg, recs, err := wal.Open(filepath.Join(l.dir(0), t.id+".wal"), wal.Options{NoFsync: true})
		l.res.WALScanNS += time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		l.res.Exact.WALRecords += len(recs)
		l.res.Exact.WALTailBytes += lg.Size()
		if err := lg.Close(); err != nil {
			return err
		}
	}
	t0 := time.Now()
	ms, err := openManager("manager", l.dir(0), l.sp.mgr)
	t1 := time.Now()
	if err != nil {
		return err
	}
	l.record(0, ms, l.lay.reopen(), t0, t1)
	err = l.hydrateAll(ms, before)
	if cerr := ms.close(); err == nil {
		err = cerr
	}
	return err
}

func (l *lap) hydrateAll(ms *managerStack, before map[string][32]byte) error {
	for j, t := range l.tenants {
		t0 := time.Now()
		s, err := ms.m.Get(t.id)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("get %s: %w", t.id, err)
		}
		l.record(0, ms, l.lay.get(j), t0, t1)
		if s.Iter() != t.iter {
			return fmt.Errorf("%s recovered at interval %d, %d were acked", t.id, s.Iter(), t.iter)
		}
		l.res.Exact.Events += s.EventCount()
		data, err := s.Snapshot()
		if err != nil {
			return err
		}
		l.res.Exact.SnapshotBytes += int64(len(data))
		if j == 0 && l.tr != nil {
			l.firstSnapshot = data
		}
		if before != nil && sha256.Sum256(data) != before[t.id] {
			return fmt.Errorf("%s: recovered snapshot differs from the one taken before Close", t.id)
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
