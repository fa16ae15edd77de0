package tune

import (
	"container/list"
	"context"
	"errors"
	"fmt"
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
	// was NOT made durable, and the failed checkpoint dropped the
	// session's log; the next successful operation, eviction or shutdown
	// writes a fresh base of its exact state. Transports map it to 503 so
	// clients back off instead of resubmitting the same interval.
	ErrDurability = errors.New("durability failure")
)

// Manager defaults: MaxResident's zero value and the compaction threshold.
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
	// NoFsync skips fsyncs on WAL commits and base-snapshot writes.
	// For benchmarks and tests; a power failure may lose committed
	// intervals.
	NoFsync bool
	// CommitInterval is the group-commit batch window: how long the
	// operation leading a batch waits for more sessions' records before
	// the one journal fsync that makes them all durable. ≤ 0 is no
	// window: the leader commits every record pending when it takes the
	// lead, and operations that arrive meanwhile form the next batch.
	CommitInterval time.Duration
	// Knowledge enables the fleet knowledge base: a shared cross-session
	// store of safe configurations and GP hyperparameters that every
	// session created by this manager contributes to and warm-starts
	// from. With a state directory it persists as fleet.knowledge (base)
	// plus fleet.knowledge-wal (contribution tail) and survives restarts.
	Knowledge bool
}

// Manager multiplexes many concurrent tuning sessions, optionally
// persisting every session to a state directory and reloading on demand.
//
// Concurrency: one mutex, mu, guards the registry — the id→entry map,
// the LRU list, the resident count and each entry's gate flags, LRU node
// and cached summary — and is held only around those map, list and flag
// updates. Operations run under their session's op gate instead (see
// managedSession), with no mutex held, so one session's model work,
// hydration or fsync never blocks another session, List or Stats.
//
// Durability: each operation appends its one record to the session's
// write-ahead log (<id>.wal), one sync point per interval — a suggest's
// is staged and rides the next batch — and a periodic compaction
// writes the session's exact state as an atomic base snapshot
// (<id>.base.json) and resets the tail, so lifetime checkpoint bytes
// stay linear in session length instead of quadratic. The group
// committer is the one way a record becomes durable, and it shares the
// sync point fleet-wide: appends land in the session log unsynced and
// in a shared journal (fleet.journal) whose single fsync per batch makes
// every session in the batch durable at once. A session log pays its
// own sync debt only when compaction resets it or a stage is refused;
// otherwise the committer syncs it by path at journal rotation and
// shutdown, resident or evicted: closing a log never syncs it.
// Recovery installs the base's state while the tail decodes on another
// goroutine, then replays the tail: with a core free, a hydrate costs
// the base's parse plus the replay, and deterministic replay makes the
// recovered session bitwise-identical to the one that crashed.
//
// Memory: sessions hydrate lazily. Boot reads only snapshot headers and
// WAL tails (O(#sessions)); a session's base is decoded and its tail
// replayed on its first touch, and once more sessions are resident than
// MaxResident the least-recently-used flushes its tail and is dropped
// from memory. A resident session keeps no op log. A fleet of
// thousands of mostly-idle sessions costs a bounded working set.
type Manager struct {
	stateDir string
	opts     ManagerOptions
	// walOpts are the Options every log and the journal open with: the
	// fsync policy plus the fleet-wide sync counter.
	walOpts wal.Options
	// compactMin is the minimum tail length before compaction,
	// DefaultCompactMin outside tests.
	compactMin int

	// committer is the shared group-commit pipeline (nil when the
	// manager is in-memory only).
	committer *wal.Committer

	// know is the fleet knowledge base (nil unless ManagerOptions.Knowledge).
	know *fleetKnowledge

	mu       sync.Mutex
	sessions map[string]*managedSession
	lru      *list.List // of resident *managedSession, front = most recent
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
	// journal into session and fleet-store logs (set once at boot).
	journalPatched int

	// checkpointFailure, when non-nil, is consulted before every persist
	// attempt. Test seam for injecting durability faults (tests often
	// run as root, where permission-based injection is a no-op).
	checkpointFailure func() error
}

// managedSession is one registry entry. The entry outlives eviction:
// s is nil while the session lives only on disk.
//
// Concurrency: the registry fields are guarded by Manager.mu. The
// heavyweight state — s, log, baseBytes — is guarded by the
// op GATE (busy + cond): acquire claims it and release hands it off,
// both under Manager.mu, so gate holders access the state without any
// lock held. That keeps candidate scoring, checkpoint serialization and
// the group-commit fsync wait off the mutex while same-session
// operations still serialize (single flight) and replay stays
// bitwise-deterministic. Methods with the Locked suffix require the
// entry's gate, not Manager.mu.
type managedSession struct {
	id string

	// Guarded by Manager.mu.
	cond    *sync.Cond    // bound to Manager.mu, created on first wait; signals gate release
	busy    bool          // op gate: set while an operation owns the session
	deleted bool          // set as the entry leaves the map
	elem    *list.Element // LRU node; nil when not resident or selected for eviction
	info    SessionInfo   // cached summary List and Info serve without hydrating

	// Guarded by the op gate.
	s *Session // nil when evicted
	// log is nil until the first persist or hydration opens it, and again
	// after a failed persist: the next one then re-bases the session.
	log *wal.Log
	// baseBytes is the size of the on-disk base snapshot.
	baseBytes int64
}

// acquire claims e's op gate, blocking behind the current holder. It
// returns false — without the gate — if e was deleted, in which case
// the caller re-resolves the id (it may have been recreated under a
// fresh entry).
func (m *Manager) acquire(e *managedSession) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for e.busy && !e.deleted {
		if e.cond == nil {
			e.cond = sync.NewCond(&m.mu)
		}
		e.cond.Wait()
	}
	if e.deleted {
		return false
	}
	e.busy = true
	return true
}

// release hands e's gate back and wakes its waiters.
func (m *Manager) release(e *managedSession) {
	m.mu.Lock()
	e.busy = false
	if e.cond != nil {
		e.cond.Broadcast()
	}
	m.mu.Unlock()
}

// dropLogLocked closes and forgets the WAL handle — at eviction and
// Close, after a write error left it in an unknown state, or before its
// file is removed. Closing syncs nothing: the records the journal holds
// for the log stay the committer's debt, synced by path. A resident
// session's next persist then rewrites an atomic base instead of
// appending to a possibly-torn log.
func (e *managedSession) dropLogLocked() error {
	if e.log == nil {
		return nil
	}
	err := e.log.Close()
	e.log = nil
	return err
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
	// committer has flushed (0 without a state directory).
	GroupCommits int64 `json:"group_commits"`
	// DegradedCommits is how many of those batches fell back to
	// per-session fsyncs because the shared journal failed.
	DegradedCommits int64 `json:"degraded_commits"`
	// JournalPatchedRecords is how many WAL records boot recovered from
	// the shared journal into session and fleet-store logs.
	JournalPatchedRecords int `json:"journal_patched_records,omitempty"`
	// Knowledge summarizes the fleet knowledge base (nil when disabled):
	// entries, lifetime contributions, queries/warm-starts this process,
	// and approximate resident bytes.
	Knowledge *knowledge.Stats `json:"knowledge,omitempty"`
}

// NewManagerOpts returns a manager with the given options (the zero
// value is production defaults). A non-empty stateDir enables
// durability: the directory is created if missing, verified writable,
// and existing sessions are registered (but not hydrated) from their
// on-disk form.
func NewManagerOpts(stateDir string, opts ManagerOptions) (_ *Manager, err error) {
	m := &Manager{stateDir: stateDir, opts: opts, compactMin: DefaultCompactMin, sessions: map[string]*managedSession{}, lru: list.New()}
	m.walOpts = wal.Options{NoFsync: opts.NoFsync, SyncCounter: &m.fsyncs}
	if stateDir != "" {
		if err := fsutil.EnsureWritableDir(stateDir); err != nil {
			return nil, fmt.Errorf("tune: state dir: %w", err)
		}
		// Patch records whose only durable copy is the shared journal back
		// into their logs BEFORE the fleet store opens and the sessions are
		// scanned.
		if err := m.recoverJournal(); err != nil {
			return nil, fmt.Errorf("tune: recovering group-commit journal: %w", err)
		}
	}
	if opts.Knowledge {
		k, kerr := m.openKnowledge()
		if kerr != nil {
			return nil, fmt.Errorf("tune: opening fleet knowledge base: %w", kerr)
		}
		m.know = k
		defer func() {
			if err != nil && k.log != nil {
				k.log.Close() // a failed boot keeps no handle open
			}
		}()
	}
	if stateDir == "" {
		return m, nil
	}
	if err := m.scanStateDir(); err != nil {
		return nil, err
	}
	c, err := wal.OpenCommitter(m.journalPath(), opts.CommitInterval, m.walOpts)
	if err != nil {
		return nil, fmt.Errorf("tune: opening group-commit journal: %w", err)
	}
	m.committer = c
	return m, nil
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

// entry looks up the session entry under id and claims its op gate. An
// entry deleted while waiting for the gate is retried: the id may have
// been recreated under a fresh entry.
func (m *Manager) entry(id string) (*managedSession, error) {
	for {
		m.mu.Lock()
		e, ok := m.sessions[id]
		m.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("tune: %w: %q", ErrNotFound, id)
		}
		if m.acquire(e) {
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
		defer m.release(e)
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
	m.mu.Lock()
	defer m.mu.Unlock()
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

// evict persists and drops each victim from memory. A victim deleted or
// touched between selection and here (it re-entered the LRU) is
// skipped; one whose flush fails is re-inserted rather than dropped,
// since losing acked state is never acceptable.
func (m *Manager) evict(victims []*managedSession) {
	for _, v := range victims {
		m.evictOne(v)
	}
}

func (m *Manager) evictOne(v *managedSession) {
	m.mu.Lock()
	switch {
	case v.deleted || v.elem != nil:
		m.mu.Unlock()
		return
	case v.busy:
		// An operation re-touched the victim after it was popped; its own
		// noteResident ran before the pop, so nothing re-inserts it — put
		// it back ourselves rather than leaking a resident session.
		v.elem = m.lru.PushBack(v)
		m.resident++
		m.mu.Unlock()
		return
	}
	v.busy = true
	m.mu.Unlock()
	defer m.release(v)
	if v.s == nil {
		return
	}
	// The log already holds every op, so hydration replays base+tail and
	// eviction must NOT force a compaction — under LRU churn that would
	// rewrite the base snapshot on every eviction and reintroduce the
	// quadratic lifetime I/O the WAL exists to avoid. Only a session whose
	// last persist failed (its log dropped) is re-based here. Otherwise
	// eviction only closes the log: records the journal covers stay the
	// committer's to sync.
	if m.tryPersistLocked(v, nil) != nil || v.dropLogLocked() != nil {
		m.reinsert(v)
		return
	}
	v.s = nil
	m.evictions.Add(1)
}

// reinsert puts a victim that could not be evicted back on the LRU.
func (m *Manager) reinsert(v *managedSession) {
	m.mu.Lock()
	if v.elem == nil {
		v.elem = m.lru.PushBack(v)
		m.resident++
	}
	m.mu.Unlock()
}

// persistLocked makes op, the record of the operation just run, durable,
// retrying once and wrapping a double failure in ErrDurability. The
// in-memory session has already advanced either way. A failed attempt
// drops the log, so the retry — or, after a double failure, the next
// operation, eviction or Close — re-bases the session's exact state
// instead of re-appending. The cached summary is refreshed in every case.
func (m *Manager) persistLocked(e *managedSession, op *walRecord) error {
	info := sessionInfo(e.id, e.s)
	m.mu.Lock()
	e.info = info
	m.mu.Unlock()
	err := m.tryPersistLocked(e, op)
	if err == nil {
		return nil
	}
	m.durabilityRetries.Add(1)
	if err2 := m.tryPersistLocked(e, nil); err2 != nil {
		return fmt.Errorf("tune: %w: session %q advanced in memory but two checkpoint attempts failed (%v; retry: %v); the next successful operation, eviction or shutdown writes a fresh base of its state",
			ErrDurability, e.id, err, err2)
	}
	return nil
}

// Create builds a new session under id and returns its summary. It
// fails if the id is taken.
func (m *Manager) Create(id string, cfg Config) (SessionInfo, error) {
	if err := validID(id); err != nil {
		return SessionInfo{}, err
	}
	// A taken id (resident or evicted) is refused before anything is
	// built; the check at publication below settles a race between two
	// creates of a free id.
	m.mu.Lock()
	_, taken := m.sessions[id]
	m.mu.Unlock()
	if taken {
		return SessionInfo{}, fmt.Errorf("tune: %w: %q", ErrExists, id)
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
		return SessionInfo{}, fmt.Errorf("tune: %w: %w", ErrInvalid, err)
	}
	// The entry is born holding its own op gate, so concurrent requests
	// for the id queue behind the initial persist, and with its summary,
	// so List never shows it blank.
	info := sessionInfo(id, s)
	e := &managedSession{id: id, s: s, busy: true, info: info}
	m.mu.Lock()
	if _, ok := m.sessions[id]; ok {
		m.mu.Unlock()
		return SessionInfo{}, fmt.Errorf("tune: %w: %q", ErrExists, id)
	}
	m.sessions[id] = e
	m.mu.Unlock()

	var victims []*managedSession
	err = func() error {
		defer m.release(e)
		if perr := m.tryPersistLocked(e, nil); perr != nil {
			// Roll the registration back: a session that could not be
			// made durable must not exist in memory only, or a client
			// retry hits "already exists" for a session that would
			// vanish on restart. Its files go first, while no concurrent
			// create of the id can have written them: a base renamed
			// into place would bring the session back at the next boot.
			e.dropLogLocked()
			rerr := m.removeFiles(id)
			m.mu.Lock()
			e.deleted = true
			delete(m.sessions, id)
			m.mu.Unlock()
			return errors.Join(perr, rerr)
		}
		victims = m.noteResident(e)
		return nil
	}()
	if err != nil {
		return SessionInfo{}, err
	}
	m.evict(victims)
	return info, nil
}

// Get returns the session under id, hydrating it if evicted. Operations
// that must be durable go through the Manager: the Session's own Suggest
// and Report bypass its log.
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
	defer m.release(e)
	// The gate keeps e registered under id until here.
	m.mu.Lock()
	e.deleted = true
	delete(m.sessions, id)
	if e.elem != nil {
		m.lru.Remove(e.elem)
		e.elem = nil
		m.resident--
	}
	m.mu.Unlock()
	e.dropLogLocked()
	e.s = nil
	if m.stateDir == "" {
		return nil
	}
	return m.removeFiles(id)
}

// List summarizes all sessions, sorted by id. Evicted sessions are
// served from their cached summaries — listing a fleet never hydrates
// anything.
func (m *Manager) List() []SessionInfo {
	m.mu.Lock()
	out := make([]SessionInfo, 0, len(m.sessions))
	for _, e := range m.sessions {
		out = append(out, e.info)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Info returns the cached summary of the session under id, like List:
// a status probe never hydrates a session or evicts another.
func (m *Manager) Info(id string) (SessionInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.sessions[id]
	if !ok {
		return SessionInfo{}, fmt.Errorf("tune: %w: %q", ErrNotFound, id)
	}
	return e.info, nil
}

// Stats reports serving and durability counters.
func (m *Manager) Stats() ManagerStats {
	var st ManagerStats
	m.mu.Lock()
	st.Sessions, st.Hydrated = len(m.sessions), m.resident
	m.mu.Unlock()
	st.Evicted = st.Sessions - st.Hydrated
	st.Hydrations = m.hydrations.Load()
	st.ReplayedEvents = m.replayedEvents.Load()
	st.Evictions = m.evictions.Load()
	st.Compactions = m.compactions.Load()
	st.CheckpointBytes = m.checkpointBytes.Load()
	st.DurabilityRetries = m.durabilityRetries.Load()
	st.SweptTempFiles = m.sweptTemps
	st.Fsyncs = m.fsyncs.Load()
	if m.stateDir != "" {
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

// Suggest runs Session.Suggest on the named session and persists its
// record. On ErrDurability the advice is still returned: the session
// advanced in memory and is re-based by the next successful operation.
func (m *Manager) Suggest(ctx context.Context, id string) (Advice, error) {
	var adv Advice
	err := m.withSession(id, func(e *managedSession) error {
		a, op, err := e.s.suggest(ctx)
		if err != nil {
			return err
		}
		adv = a
		return m.persistLocked(e, &op)
	})
	return adv, err
}

// Report runs Session.Report on the named session and persists its
// record. It returns the session's iteration count after the report.
func (m *Manager) Report(id string, o Outcome) (int, error) {
	var iter int
	err := m.withSession(id, func(e *managedSession) error {
		op := e.s.report(o)
		iter = op.Iter
		return m.persistLocked(e, &op)
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

// Rollout returns the named session's canary or blue/green rollout
// status.
func (m *Manager) Rollout(id string) (RolloutStatus, error) {
	var st RolloutStatus
	err := m.withSession(id, func(e *managedSession) error {
		st = e.s.Rollout()
		return nil
	})
	return st, err
}

// Close closes every resident session's log. Under each session's op
// gate, a session whose last persist failed is re-based, and its log is
// closed as an eviction closes it. The fleet knowledge store closes
// next, re-basing a dropped tail. The shared committer shuts down last:
// it syncs by path every log the journal still covers, resident or
// evicted, then truncates the journal, so a clean shutdown leaves
// nothing for the next boot's recovery. Each log is synced at most once.
// The manager must not be used afterwards (a request racing Close that
// the committer refuses drops its log and re-bases, so it stays durable;
// it is not lost).
func (m *Manager) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	m.mu.Lock()
	es := make([]*managedSession, 0, len(m.sessions))
	for _, e := range m.sessions {
		es = append(es, e)
	}
	m.mu.Unlock()
	sort.Slice(es, func(i, j int) bool { return es[i].id < es[j].id })
	for _, e := range es {
		if m.acquire(e) { // false: deleted concurrently
			keep(m.tryPersistLocked(e, nil))
			keep(e.dropLogLocked())
			m.release(e)
		}
	}
	if m.know != nil {
		keep(m.know.Close())
	}
	if m.stateDir != "" {
		keep(m.committer.Close())
	}
	return first
}
