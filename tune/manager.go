package tune

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsutil"
	"repro/internal/knowledge"
	"repro/internal/wal"
)

// Sentinel errors the Manager wraps its failures with, so transports
// (tune.NewServer) can map them to statuses with errors.Is instead of
// matching message text.
var (
	// ErrNotFound marks operations on a session id that does not exist.
	ErrNotFound = errors.New("session not found")
	// ErrExists marks creation of a session id that is already taken.
	ErrExists = errors.New("session already exists")
	// ErrInvalid marks requests rejected by validation (bad session id,
	// unknown space or knob in the config).
	ErrInvalid = errors.New("invalid request")
	// ErrDurability marks an operation whose in-memory effect succeeded
	// but whose checkpoint failed twice: the session advanced, the write
	// was NOT made durable, and the un-persisted events retry on the
	// next successful operation. Transports map it to 503 so clients
	// back off instead of resubmitting the same interval.
	ErrDurability = errors.New("durability failure")
)

// managerShards is the number of session-map shards. Session operations
// themselves serialize per session; the shards only bound contention on
// the id→session lookup, so a modest constant suffices.
const managerShards = 16

// Defaults for ManagerOptions zero values.
const (
	// DefaultMaxResident bounds how many sessions are hydrated in memory
	// at once before the least-recently-used is evicted back to its
	// compacted on-disk form.
	DefaultMaxResident = 1024
	// DefaultCompactMin is the minimum WAL tail length before a
	// compaction writes a new base snapshot.
	DefaultCompactMin = 64
)

// ManagerOptions tunes fleet-scale serving behavior. The zero value is
// production defaults.
type ManagerOptions struct {
	// MaxResident bounds hydrated sessions in memory (0 = DefaultMaxResident,
	// negative = unlimited). Sessions beyond the bound are LRU-evicted to
	// their compacted base+log form and re-hydrated on first touch.
	MaxResident int
	// CompactMin is the minimum tail length before compaction
	// (0 = DefaultCompactMin). Compaction also waits for the tail's bytes
	// to reach the base's, which keeps lifetime checkpoint I/O within
	// twice the record bytes and a hydrate's replay within the state's
	// size.
	CompactMin int
	// NoFsync skips fsyncs on WAL commits and base-snapshot writes.
	// For benchmarks and tests; a power failure may lose committed
	// intervals.
	NoFsync bool
	// CommitInterval enables cross-session fsync group commit: every
	// session's WAL appends funnel into a shared journal whose single
	// fsync per batch window makes the whole batch durable, so a fleet
	// of N chatty sessions pays ~1 fsync per window instead of N.
	// 0 disables the committer (each operation fsyncs its own log);
	// > 0 is the batch window; < 0 enables the committer with no window
	// (each batch commits as soon as the committer picks it up — for
	// tests).
	CommitInterval time.Duration
	// CommitBatch caps a group-commit batch: once this many operations
	// are waiting the batch commits without waiting out the window
	// (0 = wal.DefaultCommitBatch). Only meaningful with CommitInterval.
	CommitBatch int
	// Knowledge enables the fleet knowledge base: a shared cross-session
	// store of safe configurations and GP hyperparameters that every
	// session created by this manager contributes to and warm-starts
	// from. With a state directory it persists as fleet.knowledge (base)
	// plus fleet.knowledge-wal (contribution tail) and survives restarts.
	Knowledge bool
}

// Manager multiplexes many concurrent tuning sessions behind sharded
// locks, optionally persisting every session to a state directory and
// reloading on demand.
//
// Durability: each operation appends its events to the session's
// write-ahead log (<id>.wal) with one group-commit fsync — O(1) I/O per
// interval — and a periodic compaction writes the session's exact state
// as an atomic base snapshot (<id>.base.json) and resets the tail, so
// lifetime checkpoint bytes stay linear in session length instead of
// quadratic. With CommitInterval
// set, the fsync itself is shared fleet-wide: appends land in the
// session log unsynced and in a shared journal (fleet.journal) whose
// single fsync per batch window makes every session in the batch
// durable at once; session logs settle their sync debt lazily at
// journal rotation, compaction, eviction and shutdown. Recovery installs
// the base's state and replays the tail through the snapshot
// verification machinery; deterministic replay makes the recovered
// session bitwise-identical to the one that crashed.
//
// Memory: sessions hydrate lazily. Boot reads only snapshot headers and
// WAL tails (O(#sessions)); a session's base is decoded and its tail
// replayed on its first touch, and once more sessions are resident than
// MaxResident the least-recently-used flushes its tail and is dropped
// from memory. A resident session keeps no persisted events. A fleet of
// thousands of mostly-idle sessions costs a bounded working set.
type Manager struct {
	stateDir string
	opts     ManagerOptions
	shards   [managerShards]managerShard

	// committer is the shared group-commit pipeline (nil when
	// CommitInterval is 0 or the manager is in-memory only).
	committer *wal.Committer

	// know is the fleet knowledge base (nil unless ManagerOptions.Knowledge).
	know *fleetKnowledge

	// lmu guards the LRU list of resident (hydrated) sessions and the
	// resident count. It never nests with a session's mu or op gate:
	// LRU bookkeeping runs under the gate alone.
	lmu      sync.Mutex
	lru      *list.List // of *managedSession, front = most recent
	resident int

	hydrations        atomic.Int64
	replayedEvents    atomic.Int64
	evictions         atomic.Int64
	compactions       atomic.Int64
	checkpointBytes   atomic.Int64
	durabilityRetries atomic.Int64
	// fsyncs counts every logical sync point issued for durability —
	// WAL commits, journal batch syncs, rotation syncs and atomic base
	// writes — even under NoFsync, so benchmarks can compare commit
	// strategies without paying for real flushes.
	fsyncs     atomic.Int64
	sweptTemps int // set once at boot
	// journalPatched is how many records boot recovered from the shared
	// journal into session logs (set once at boot).
	journalPatched int

	// checkpointFailure, when non-nil, is consulted before every persist
	// attempt. Test seam for injecting durability faults (tests often
	// run as root, where permission-based injection is a no-op).
	checkpointFailure func() error
}

type managerShard struct {
	mu       sync.RWMutex
	sessions map[string]*managedSession
}

// managedSession is one registry entry. The entry outlives eviction:
// s is nil while the session lives only on disk.
//
// Concurrency: mu guards only the flags (busy, deleted) and is held for
// microseconds. The heavyweight state — s, log, persisted, baseBytes —
// is guarded by the op GATE (busy + cond): acquire claims it,
// release hands it off, and both transitions happen under mu, so gate
// holders access the state without any lock held. That keeps candidate
// scoring, checkpoint serialization and the group-commit fsync wait off
// every mutex while same-session operations still serialize (single
// flight) and replay stays bitwise-deterministic. Methods with the
// Locked suffix require the gate, not mu.
type managedSession struct {
	id string

	mu      sync.Mutex
	cond    *sync.Cond // lazily initialized under mu; signals gate release
	busy    bool       // op gate: set while an operation owns the session
	deleted bool
	s       *Session // nil when evicted
	log     *wal.Log // nil until the first persist or hydration opens it
	// persisted is the global event index up to which events are
	// durable; everything at or past it is appended on the next persist
	// (the retry path after a durability failure).
	persisted int
	// baseBytes is the size of the on-disk base snapshot.
	baseBytes int64

	// elem is this entry's LRU node (nil when not resident or selected
	// for eviction); guarded by Manager.lmu.
	elem *list.Element

	// info is the cached summary List and the boot scan serve without
	// hydrating the session.
	infoMu sync.Mutex
	info   SessionInfo
}

func (e *managedSession) Info() SessionInfo {
	e.infoMu.Lock()
	defer e.infoMu.Unlock()
	return e.info
}

func (e *managedSession) setInfo(in SessionInfo) {
	e.infoMu.Lock()
	e.info = in
	e.infoMu.Unlock()
}

// acquire claims the entry's op gate, blocking behind the current
// holder. It returns false — without the gate — if the entry was
// deleted, in which case the caller re-resolves the id (it may have
// been recreated under a fresh entry).
func (e *managedSession) acquire() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.busy && !e.deleted {
		if e.cond == nil {
			e.cond = sync.NewCond(&e.mu)
		}
		e.cond.Wait()
	}
	if e.deleted {
		return false
	}
	e.busy = true
	return true
}

// release hands the gate back and wakes waiters.
func (e *managedSession) release() {
	e.mu.Lock()
	e.busy = false
	if e.cond != nil {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// dropLogLocked closes and forgets the WAL handle after a write error
// left it in an unknown state; the next persist rewrites an atomic base
// instead of appending to a possibly-torn log.
func (e *managedSession) dropLogLocked() {
	if e.log != nil {
		e.log.Close()
		e.log = nil
	}
}

// SessionRollout is the rollout summary nested in SessionInfo: the
// configured mode ("canary" or "bluegreen"; empty for direct apply) and
// the current phase.
type SessionRollout struct {
	Mode  string `json:"mode,omitempty"`
	Phase string `json:"phase"`
}

// SessionInfo summarizes one managed session.
type SessionInfo struct {
	ID    string `json:"id"`
	Space string `json:"space"`
	Iter  int    `json:"iter"`
	// Rollout is the session's rollout mode and phase.
	Rollout *SessionRollout `json:"rollout,omitempty"`
}

// withRollout fills the nested rollout summary from a phase and the
// session's configured mode.
func (in SessionInfo) withRollout(mode, phase string) SessionInfo {
	if phase == RolloutDirect {
		mode = ""
	}
	in.Rollout = &SessionRollout{Mode: mode, Phase: phase}
	return in
}

// ManagerStats counts the manager's serving and durability activity.
type ManagerStats struct {
	// Sessions is the total session count, resident or not.
	Sessions int `json:"sessions"`
	// Hydrated is how many sessions are resident in memory.
	Hydrated int `json:"hydrated"`
	// Evicted is how many sessions currently live only on disk.
	Evicted int `json:"evicted"`
	// Hydrations / Evictions / Compactions are lifetime counters.
	Hydrations  int64 `json:"hydrations"`
	Evictions   int64 `json:"evictions"`
	Compactions int64 `json:"compactions"`
	// ReplayedEvents counts the logged events hydrations replayed: the
	// WAL tails on top of their bases.
	ReplayedEvents int64 `json:"replayed_events"`
	// CheckpointBytes is the total bytes written for durability (WAL
	// frames plus base snapshots) since the manager started.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// DurabilityRetries counts persist attempts that needed the retry.
	DurabilityRetries int64 `json:"durability_retries"`
	// SweptTempFiles is how many stale checkpoint temps boot removed.
	SweptTempFiles int `json:"swept_temp_files"`
	// Fsyncs counts every logical durability sync point issued (WAL
	// commits, journal batch syncs, rotation syncs, atomic base writes);
	// counted even under NoFsync so ablations stay comparable.
	Fsyncs int64 `json:"fsyncs"`
	// GroupCommits is how many cross-session batches the shared
	// committer has flushed (0 when group commit is off).
	GroupCommits int64 `json:"group_commits"`
	// DegradedCommits is how many of those batches fell back to
	// per-session fsyncs because the shared journal failed.
	DegradedCommits int64 `json:"degraded_commits"`
	// JournalPatchedRecords is how many WAL records boot recovered from
	// the shared journal into session logs.
	JournalPatchedRecords int `json:"journal_patched_records,omitempty"`
	// Knowledge summarizes the fleet knowledge base (nil when disabled):
	// entries, lifetime contributions, queries/warm-starts this process,
	// and approximate resident bytes.
	Knowledge *knowledge.Stats `json:"knowledge,omitempty"`
}

// NewManager returns a manager with default options. A non-empty
// stateDir enables durability: the directory is created if missing,
// verified writable, and existing sessions are registered (but not
// hydrated) from their on-disk form.
func NewManager(stateDir string) (*Manager, error) {
	return NewManagerOpts(stateDir, ManagerOptions{})
}

// NewManagerOpts is NewManager with explicit ManagerOptions.
func NewManagerOpts(stateDir string, opts ManagerOptions) (*Manager, error) {
	m := &Manager{stateDir: stateDir, opts: opts, lru: list.New()}
	for i := range m.shards {
		m.shards[i].sessions = map[string]*managedSession{}
	}
	if stateDir == "" {
		if opts.Knowledge {
			k, err := m.openKnowledge()
			if err != nil {
				return nil, fmt.Errorf("tune: opening fleet knowledge base: %w", err)
			}
			m.know = k
		}
		return m, nil
	}
	if err := fsutil.EnsureWritableDir(stateDir); err != nil {
		return nil, fmt.Errorf("tune: state dir: %w", err)
	}
	// Recover the shared group-commit journal BEFORE scanning sessions:
	// records whose only durable copy is the journal are patched back
	// into their session logs, so the scan (and every later hydration)
	// sees complete tails. Runs regardless of this boot's CommitInterval
	// — the previous process may have crashed with the committer on.
	if err := m.recoverJournal(); err != nil {
		return nil, fmt.Errorf("tune: recovering group-commit journal: %w", err)
	}
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		return nil, fmt.Errorf("tune: reading state dir: %w", err)
	}
	// A session is its <id>.base.json; any file that is neither a base
	// nor a tail is not ours and is left alone.
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasPrefix(name, ".") {
			// A crash between CreateTemp and rename orphans an atomic-write
			// temp; session ids cannot start with a dot, so anything
			// dot-prefixed here is sweepable.
			if os.Remove(m.stateDir+string(os.PathSeparator)+name) == nil {
				m.sweptTemps++
			}
			continue
		}
		if id, ok := strings.CutSuffix(name, ".wal"); ok && validID(id) == nil {
			if _, err := os.Stat(m.basePath(id)); os.IsNotExist(err) {
				// An orphan tail: the crash happened before the session's
				// first base rename, so there is nothing to anchor a replay to.
				os.Remove(m.walPath(id))
			}
			continue
		}
		id, ok := strings.CutSuffix(name, ".base.json")
		if !ok || validID(id) != nil {
			continue
		}
		e := &managedSession{id: id}
		if err := m.peekInfo(e); err != nil {
			return nil, fmt.Errorf("tune: scanning session %q: %w", id, err)
		}
		m.shard(id).sessions[id] = e
	}
	if opts.Knowledge {
		k, err := m.openKnowledge()
		if err != nil {
			return nil, fmt.Errorf("tune: opening fleet knowledge base: %w", err)
		}
		m.know = k
	}
	if opts.CommitInterval != 0 {
		c, err := wal.OpenCommitter(m.journalPath(), wal.CommitterOptions{
			Interval:    opts.CommitInterval,
			Batch:       opts.CommitBatch,
			NoFsync:     opts.NoFsync,
			SyncCounter: &m.fsyncs,
		})
		if err != nil {
			return nil, fmt.Errorf("tune: opening group-commit journal: %w", err)
		}
		m.committer = c
	}
	return m, nil
}

// journalPath is the shared group-commit journal's location. The name
// carries none of the session-file suffixes, so the boot scan never
// mistakes it for a session.
func (m *Manager) journalPath() string {
	return filepath.Join(m.stateDir, "fleet.journal")
}

// recoverJournal patches session WALs from the shared journal at boot.
// A crash can leave records whose only durable copy is the journal (the
// per-session log was flushed but its fsync deferred to rotation), so
// each session's journal records that contiguously extend its log's
// intact tail are appended — and fsynced — before the journal is
// truncated. Records for sessions with no on-disk files (deleted before
// the crash), records out of sequence and a deleted-then-recreated id's
// earlier incarnation are dropped: a genuine tail is always contiguous,
// because rotation fsyncs every log before the journal truncates.
func (m *Manager) recoverJournal() error {
	recovered, err := wal.ReadJournal(m.journalPath())
	if err != nil {
		return err
	}
	for id, payloads := range recovered {
		if validID(id) != nil {
			continue
		}
		if _, err := os.Stat(m.basePath(id)); err != nil {
			continue // no base to anchor a replay: deleted or never durable
		}
		patched, err := m.patchSessionLog(id, payloads)
		if err != nil {
			return fmt.Errorf("session %q: %w", id, err)
		}
		m.journalPatched += patched
	}
	if len(recovered) == 0 {
		return nil
	}
	// Every journaled record now lives in a fsynced session log (or was
	// stale); empty the journal so the next boot starts clean.
	f, err := os.OpenFile(m.journalPath(), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(0); err != nil {
		return err
	}
	m.fsyncs.Add(1)
	if !m.opts.NoFsync {
		return f.Sync()
	}
	return nil
}

// patchSessionLog appends the journal payloads that contiguously extend
// the session's log and fsyncs the result.
func (m *Manager) patchSessionLog(id string, payloads [][]byte) (int, error) {
	lg, recs, err := wal.Open(m.walPath(id), m.walOptions())
	if err != nil {
		return 0, err
	}
	defer lg.Close()
	var next int
	if len(recs) > 0 {
		var last walRecord
		if err := json.Unmarshal(recs[len(recs)-1], &last); err != nil {
			return 0, fmt.Errorf("final wal record: %w", err)
		}
		next = last.Idx + 1
	} else {
		// An empty log anchors at the base snapshot's next event.
		h, err := peekSnapshotHeader(m.basePath(id))
		if err != nil {
			return 0, err
		}
		next = h.Next
	}
	// Each event is journaled once and in order, so one incarnation's
	// indices strictly increase: everything up to the last non-increase
	// belongs to a deleted incarnation of a since-recreated id, and only
	// what follows may extend this log.
	idxs := make([]int, len(payloads))
	live := 0
	for i, p := range payloads {
		var rec walRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return 0, fmt.Errorf("journal payload: %w", err)
		}
		if idxs[i] = rec.Idx; i > 0 && rec.Idx <= idxs[i-1] {
			live = i
		}
	}
	patched := 0
	for i := live; i < len(payloads); i++ {
		if idxs[i] != next {
			continue // already in the log or pre-base stale
		}
		if err := lg.Append(payloads[i]); err != nil {
			return patched, err
		}
		next++
		patched++
	}
	if patched == 0 {
		return 0, nil
	}
	return patched, lg.Commit()
}

// validID restricts session ids to filesystem- and URL-safe names.
func validID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("tune: %w: session id must be 1–128 characters", ErrInvalid)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("tune: %w: session id %q contains %q (allowed: letters, digits, - _ .)", ErrInvalid, id, c)
		}
	}
	if strings.HasPrefix(id, ".") {
		return fmt.Errorf("tune: %w: session id %q must not start with a dot", ErrInvalid, id)
	}
	return nil
}

func (m *Manager) shard(id string) *managerShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &m.shards[h.Sum32()%managerShards]
}

// entry looks up the session entry under id and claims its op gate. An
// entry deleted while waiting for the gate is retried: the id may have
// been recreated under a fresh entry.
func (m *Manager) entry(id string) (*managedSession, error) {
	for {
		sh := m.shard(id)
		sh.mu.RLock()
		e, ok := sh.sessions[id]
		sh.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("tune: %w: %q", ErrNotFound, id)
		}
		if e.acquire() {
			return e, nil
		}
	}
}

// withSession runs fn on the hydrated session entry under id holding
// its op gate — no mutex: same-session requests single-flight behind
// the gate while hydration replay, candidate scoring and the checkpoint
// fsync wait proceed without blocking List, Stats, eviction or any
// other session. Afterwards, whatever the hydration displaced past the
// residency bound is evicted; the evictor try-acquires, so it never
// stalls behind a long-running operation.
func (m *Manager) withSession(id string, fn func(e *managedSession) error) error {
	e, err := m.entry(id)
	if err != nil {
		return err
	}
	var victims []*managedSession
	err = func() error {
		defer e.release()
		if err := m.hydrateLocked(e); err != nil {
			return err
		}
		victims = m.noteResident(e)
		return fn(e)
	}()
	m.evict(victims)
	return err
}

func (m *Manager) maxResident() int {
	switch {
	case m.opts.MaxResident > 0:
		return m.opts.MaxResident
	case m.opts.MaxResident < 0:
		return int(^uint(0) >> 1) // unlimited
	default:
		return DefaultMaxResident
	}
}

// noteResident marks e as the most recently used resident session and
// pops everything past the residency bound off the LRU tail. Callers
// hold e's op gate; the returned victims must be evicted AFTER
// releasing it.
func (m *Manager) noteResident(e *managedSession) []*managedSession {
	m.lmu.Lock()
	defer m.lmu.Unlock()
	if e.elem != nil {
		m.lru.MoveToFront(e.elem)
	} else {
		e.elem = m.lru.PushFront(e)
		m.resident++
	}
	if m.stateDir == "" {
		return nil // nowhere to evict to
	}
	var victims []*managedSession
	for max := m.maxResident(); m.resident > max; {
		back := m.lru.Back()
		if back == nil || back == e.elem {
			break
		}
		v := back.Value.(*managedSession)
		m.lru.Remove(back)
		v.elem = nil
		m.resident--
		victims = append(victims, v)
	}
	return victims
}

// evict persists and drops each victim from memory. A victim touched
// between selection and here has re-entered the LRU (elem != nil) and
// is skipped; one whose flush fails is re-inserted rather than dropped,
// since losing un-persisted events is never acceptable.
func (m *Manager) evict(victims []*managedSession) {
	for _, v := range victims {
		m.evictOne(v)
	}
}

func (m *Manager) evictOne(v *managedSession) {
	v.mu.Lock()
	if v.deleted {
		v.mu.Unlock()
		return
	}
	if v.busy {
		v.mu.Unlock()
		// An operation re-touched the victim after it was popped; its own
		// noteResident ran before the pop, so nothing re-inserts it — put
		// it back ourselves rather than leaking a resident session.
		m.reinsert(v)
		return
	}
	v.busy = true
	v.mu.Unlock()
	defer v.release()
	m.lmu.Lock()
	relisted := v.elem != nil // another victim pop may be clearing it
	m.lmu.Unlock()
	if v.deleted || v.s == nil || relisted {
		return
	}
	// Flushing the pending tail is enough: hydration replays base+tail,
	// so eviction must NOT force a compaction — under LRU churn that
	// would rewrite the base snapshot on every eviction and reintroduce
	// the quadratic lifetime I/O the WAL exists to avoid. Compaction
	// stays on its byte schedule inside tryPersistLocked.
	if err := m.tryPersistLocked(v); err != nil {
		m.reinsert(v)
		return
	}
	if m.committer != nil && v.log != nil {
		// The flushed tail's durability may lean on the shared journal;
		// an evicted log's handle closes, so settle the debt now — one
		// fsync — and release the journal's rotation hold on it.
		if err := v.log.SyncFile(); err != nil {
			m.reinsert(v)
			return
		}
		m.committer.Forget(v.log.Path())
	}
	v.dropLogLocked()
	v.s = nil
	m.evictions.Add(1)
}

// reinsert puts a victim that could not be evicted back on the LRU.
func (m *Manager) reinsert(v *managedSession) {
	m.lmu.Lock()
	if v.elem == nil {
		v.elem = m.lru.PushBack(v)
		m.resident++
	}
	m.lmu.Unlock()
}

// persistLocked makes the entry's pending events durable, retrying once
// and wrapping a double failure in ErrDurability. The in-memory session
// has already advanced either way — the persisted cursor keeps the
// unflushed events queued, so the next successful operation self-heals.
func (m *Manager) persistLocked(e *managedSession) error {
	defer e.setInfo(sessionInfo(e.id, e.s))
	if m.stateDir == "" {
		return nil
	}
	err := m.tryPersistLocked(e)
	if err == nil {
		return nil
	}
	m.durabilityRetries.Add(1)
	if err2 := m.tryPersistLocked(e); err2 != nil {
		return fmt.Errorf("tune: %w: session %q advanced in memory but two checkpoint attempts failed (%v; retry: %v); its un-persisted events will be flushed by the next successful operation",
			ErrDurability, e.id, err, err2)
	}
	return nil
}

// Create builds a new session under id. It fails if the id is taken.
func (m *Manager) Create(id string, cfg Config) (*Session, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	// A taken id (resident or evicted) is refused before anything is
	// built; the check under the write lock below settles a race between
	// two creates of a free id.
	sh := m.shard(id)
	sh.mu.RLock()
	_, taken := sh.sessions[id]
	sh.mu.RUnlock()
	if taken {
		return nil, fmt.Errorf("tune: %w: %q", ErrExists, id)
	}
	if m.know != nil {
		// Fleet knowledge is manager-wide: every session it creates joins
		// the shared store. The flag round-trips through the snapshot, so a
		// later boot without the store still replays the logged advice.
		cfg.Knowledge = true
		cfg.fleet = m.know
	}
	// Build outside all locks: construction pre-trains the featurizer on
	// a seed this process has not seen, and concurrent creates must not
	// serialize behind it.
	s, err := NewSession(cfg)
	if err != nil {
		return nil, fmt.Errorf("tune: %w: %w", ErrInvalid, err)
	}
	// The entry is born holding its own op gate, so concurrent requests
	// for the id queue behind the initial persist.
	e := &managedSession{id: id, s: s, busy: true}
	sh.mu.Lock()
	if _, ok := sh.sessions[id]; ok {
		sh.mu.Unlock()
		return nil, fmt.Errorf("tune: %w: %q", ErrExists, id)
	}
	sh.sessions[id] = e
	sh.mu.Unlock()

	var victims []*managedSession
	err = func() error {
		defer e.release()
		if m.stateDir != "" {
			if perr := m.tryPersistLocked(e); perr != nil {
				// Roll the registration back: a session that could not be
				// made durable must not exist in memory only, or a client
				// retry hits "already exists" for a session that would
				// vanish on restart.
				e.mu.Lock()
				e.deleted = true
				e.mu.Unlock()
				e.dropLogLocked()
				sh.mu.Lock()
				if sh.sessions[id] == e {
					delete(sh.sessions, id)
				}
				sh.mu.Unlock()
				return perr
			}
		}
		e.setInfo(sessionInfo(id, s))
		victims = m.noteResident(e)
		return nil
	}()
	if err != nil {
		return nil, err
	}
	m.evict(victims)
	return s, nil
}

// Get returns the session under id, hydrating it if evicted.
func (m *Manager) Get(id string) (*Session, error) {
	var s *Session
	err := m.withSession(id, func(e *managedSession) error {
		s = e.s
		return nil
	})
	return s, err
}

// Delete removes the session under id and its durable files. The op
// gate is held across the removal, so an in-flight operation's persist
// cannot resurrect the files afterwards.
func (m *Manager) Delete(id string) error {
	e, err := m.entry(id)
	if err != nil {
		return err
	}
	defer e.release()
	e.mu.Lock()
	e.deleted = true
	e.mu.Unlock()
	sh := m.shard(id)
	sh.mu.Lock()
	if sh.sessions[id] == e {
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()
	m.lmu.Lock()
	if e.elem != nil {
		m.lru.Remove(e.elem)
		e.elem = nil
		m.resident--
	}
	m.lmu.Unlock()
	if m.committer != nil && e.log != nil {
		// Journal records for a deleted session are moot; release the
		// rotation hold so the handle's close cannot stall truncation.
		m.committer.Forget(e.log.Path())
	}
	e.dropLogLocked()
	e.s = nil
	if m.stateDir != "" {
		for _, p := range []string{m.basePath(id), m.walPath(id)} {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// List summarizes all sessions, sorted by id. Evicted sessions are
// served from their cached summaries — listing a fleet never hydrates
// anything.
func (m *Manager) List() []SessionInfo {
	var out []SessionInfo
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, e := range sh.sessions {
			out = append(out, e.Info())
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats reports serving and durability counters.
func (m *Manager) Stats() ManagerStats {
	var st ManagerStats
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		st.Sessions += len(sh.sessions)
		sh.mu.RUnlock()
	}
	m.lmu.Lock()
	st.Hydrated = m.resident
	m.lmu.Unlock()
	if st.Hydrated > st.Sessions {
		st.Hydrated = st.Sessions
	}
	st.Evicted = st.Sessions - st.Hydrated
	st.Hydrations = m.hydrations.Load()
	st.ReplayedEvents = m.replayedEvents.Load()
	st.Evictions = m.evictions.Load()
	st.Compactions = m.compactions.Load()
	st.CheckpointBytes = m.checkpointBytes.Load()
	st.DurabilityRetries = m.durabilityRetries.Load()
	st.SweptTempFiles = m.sweptTemps
	st.Fsyncs = m.fsyncs.Load()
	if m.committer != nil {
		st.GroupCommits = m.committer.Batches()
		st.DegradedCommits = m.committer.DegradedBatches()
	}
	st.JournalPatchedRecords = m.journalPatched
	if m.know != nil {
		kst := m.know.stats()
		st.Knowledge = &kst
	}
	return st
}

// KnowledgeStats returns the fleet knowledge base's counters; ok is
// false when the manager runs without one.
func (m *Manager) KnowledgeStats() (knowledge.Stats, bool) {
	if m.know == nil {
		return knowledge.Stats{}, false
	}
	return m.know.stats(), true
}

// KnowledgeExport serializes the fleet knowledge base as versioned JSON
// suitable for KnowledgeImport on another fleet.
func (m *Manager) KnowledgeExport() ([]byte, error) {
	if m.know == nil {
		return nil, fmt.Errorf("tune: %w: fleet knowledge base disabled", ErrNotFound)
	}
	return m.know.export()
}

// KnowledgeImport merges an exported knowledge snapshot into the fleet
// store (and makes the result durable). It returns how many records were
// merged.
func (m *Manager) KnowledgeImport(data []byte) (int, error) {
	if m.know == nil {
		return 0, fmt.Errorf("tune: %w: fleet knowledge base disabled", ErrNotFound)
	}
	return m.know.importSnapshot(data)
}

// Suggest runs Session.Suggest on the named session and persists the
// new events. On ErrDurability the advice is still returned: the
// session advanced in memory and will flush with the next operation.
func (m *Manager) Suggest(ctx context.Context, id string) (Advice, error) {
	var adv Advice
	err := m.withSession(id, func(e *managedSession) error {
		a, err := e.s.Suggest(ctx)
		if err != nil {
			return err
		}
		adv = a
		return m.persistLocked(e)
	})
	return adv, err
}

// Report runs Session.Report on the named session and persists the new
// events. It returns the session's iteration count after the report.
func (m *Manager) Report(id string, o Outcome) (int, error) {
	var iter int
	err := m.withSession(id, func(e *managedSession) error {
		if err := e.s.Report(o); err != nil {
			return err
		}
		iter = e.s.Iter()
		return m.persistLocked(e)
	})
	return iter, err
}

// Snapshot serializes the named session.
func (m *Manager) Snapshot(id string) ([]byte, error) {
	var data []byte
	err := m.withSession(id, func(e *managedSession) error {
		var serr error
		data, serr = e.s.Snapshot()
		return serr
	})
	return data, err
}

// Rollout returns the named session's canary rollout status.
func (m *Manager) Rollout(id string) (RolloutStatus, error) {
	var st RolloutStatus
	err := m.withSession(id, func(e *managedSession) error {
		st = e.s.Rollout()
		return nil
	})
	return st, err
}

// Close flushes and closes every resident session's log. The shared
// committer shuts down first — its final rotation fsyncs every log the
// journal still covers and truncates the journal, so a clean shutdown
// leaves nothing for the next boot's recovery — then each session's log
// is closed under its op gate. The manager must not be used afterwards
// (a request racing Close degrades to a per-session fsync and stays
// durable; it is not lost).
func (m *Manager) Close() error {
	var first error
	if m.committer != nil {
		if err := m.committer.Close(); err != nil {
			first = err
		}
	}
	if m.know != nil {
		if err := m.know.Close(); err != nil && first == nil {
			first = err
		}
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		es := make([]*managedSession, 0, len(sh.sessions))
		for _, e := range sh.sessions {
			es = append(es, e) //tunevet:ignore determinism -- shutdown close order: each log's Close is independent and nothing here feeds the event log or the wire
		}
		sh.mu.RUnlock()
		for _, e := range es {
			if !e.acquire() {
				continue // deleted concurrently
			}
			if e.log != nil {
				if err := e.log.Close(); err != nil && first == nil {
					first = err
				}
				e.log = nil
			}
			e.release()
		}
	}
	return first
}
