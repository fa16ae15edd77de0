package tune

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/wal"
)

// On-disk layout of a durable session under the Manager's state
// directory:
//
//	<id>.base.json  base snapshot (a compact Snapshot document: the
//	                session's exact state when the base was written)
//	<id>.wal        append-only tail: events since the base was compacted
//	.<id>-*         in-flight atomic-write temps; swept at boot
//
// Recovery installs the base's state while the tail decodes on its own
// goroutine, then replays each record as it lands — each op installing
// what its record says it derived — into a session bitwise-identical to
// one that never restarted: a hydrate costs the base's parse plus replay.
func (m *Manager) basePath(id string) string {
	return filepath.Join(m.stateDir, id+".base.json")
}

func (m *Manager) walPath(id string) string {
	return filepath.Join(m.stateDir, id+".wal")
}

// walOptions are the Options every session log opens with: the manager
// fsync policy plus the fleet-wide sync counter.
func (m *Manager) walOptions() wal.Options {
	return wal.Options{NoFsync: m.opts.NoFsync, SyncCounter: &m.fsyncs}
}

// walRecord is the JSON payload of one WAL frame: one op's event and
// everything it derived, behind its envelope, built under the session
// lock and handed to the Manager.
type walRecord struct {
	walEnvelope
	Event event `json:"event"`
}

// walEnvelope is a record's head, decoded alone where the event is not
// needed; embedded, it marshals first. Idx is the event's index in the
// session's global event sequence, so replay can skip records that
// predate the current base (its header's Next; a crash between the
// base's rename and the log's reset leaves such stale records) and
// detect gaps. Iter and Phase mirror the session counters AFTER the op,
// so the boot scan can summarize an evicted session from its last record.
type walEnvelope struct {
	Idx   int    `json:"idx"`
	Iter  int    `json:"iter"`
	Phase string `json:"phase,omitempty"`
}

// decodedRecord is WAL record i as the decoder goroutine hands it over.
type decodedRecord struct {
	i   int
	rec walRecord
	err error
}

// decodeTail decodes recovered WAL payloads in order on its own
// goroutine, so the decode overlaps the base's parse and the replay of
// earlier records. The channel holds every record, so the decoder never
// blocks and always exits; it stops early once stop is set.
func decodeTail(recs [][]byte, stop *atomic.Bool) <-chan decodedRecord {
	out := make(chan decodedRecord, len(recs))
	go func() {
		defer close(out)
		for i := 0; i < len(recs) && !stop.Load(); i++ {
			d := decodedRecord{i: i}
			d.err = json.Unmarshal(recs[i], &d.rec)
			out <- d
		}
	}()
	return out
}

// walEncoder is a pooled encoder that marshals walRecords into a reused
// buffer, so the hot path allocates nothing for checkpoint framing at
// steady state. The encoder produces byte-for-byte what json.Marshal
// would (Encode is Marshal plus a newline, stripped here), keeping WAL
// contents — and therefore replay — bitwise identical to the unpooled
// path.
type walEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var walEncoders = sync.Pool{New: func() any { return new(walEncoder) }}

// encode marshals rec and returns a view of the payload in the shared
// buffer — valid until the encoder is reused.
func (w *walEncoder) encode(rec *walRecord) ([]byte, error) {
	if w.enc == nil {
		w.enc = json.NewEncoder(&w.buf)
	}
	w.buf.Reset()
	if err := w.enc.Encode(rec); err != nil {
		return nil, err
	}
	return w.buf.Bytes()[:w.buf.Len()-1], nil // strip Encode's trailing newline
}

// tryPersistLocked makes the session's state durable once (the caller
// handles retries and ErrDurability wrapping). Normal path: append op,
// the record of the op just run, to the WAL and commit it — one sync
// point per interval, as a suggest is staged for the next batch (see
// commitTail), and that one shared fleet-wide by the committer. A nil
// op only re-bases a session whose log is gone.
// The base snapshot is rewritten on the first write (creation), after
// any failed attempt (which drops the log, so the next attempt re-bases
// atomically instead of re-appending), or when compaction is due.
func (m *Manager) tryPersistLocked(e *managedSession, op *walRecord) error {
	if m.stateDir == "" || e.s == nil {
		return nil
	}
	if m.checkpointFailure != nil {
		// Test seam: injected durability faults.
		if err := m.checkpointFailure(); err != nil {
			e.dropLogLocked()
			return err
		}
	}
	if e.log == nil {
		return m.compactLocked(e)
	}
	if op == nil {
		return nil
	}
	before := e.log.Size()
	wenc := walEncoders.Get().(*walEncoder)
	defer walEncoders.Put(wenc)
	payload, err := wenc.encode(op)
	if err != nil {
		return err
	}
	if err := e.log.Append(payload); err != nil {
		e.dropLogLocked()
		return err
	}
	if err := m.commitTail(e, op, payload); err != nil {
		// The buffered frame may have hit disk partially; appending after
		// an unknown flush state could tear the middle of the log. Drop
		// the handle — the retry path rewrites an atomic base instead.
		e.dropLogLocked()
		return err
	}
	m.checkpointBytes.Add(e.log.Size() - before)
	if m.compactDue(e) {
		return m.compactLocked(e)
	}
	return nil
}

// commitTail flushes the record just appended to e.log to the OS and
// makes it durable — except a suggest's, which is staged in the journal
// like a fleet contribution: kill -9 loses nothing, and the next batch
// of any session syncs it. A suggest that a power failure loses first
// is re-derived on retry: its advice and the decision its record logs
// are computed from the state the log holds. A refused stage (journal
// down, committer closed) syncs the log in place. A suggest that
// queried the fleet store logged advice the log holds nowhere else, and
// commits like a report: it enqueues its record and waits until the
// journal's batch fsync (or, degraded, this log's own) covers it. Stage
// and Enqueue copy the payload, so the pooled encoder can be reused. A
// committer that refuses an enqueue (a request racing Close) fails the
// commit, so the caller drops the log and re-bases.
func (m *Manager) commitTail(e *managedSession, op *walRecord, payload []byte) error {
	if err := e.log.Flush(); err != nil {
		return err
	}
	if op.Event.Kind == eventSuggest && op.Event.Knowledge == nil {
		if m.committer.Stage(e.id, e.log, payload) {
			return nil
		}
		return e.log.SyncFile()
	}
	wait, err := m.committer.Enqueue(e.id, e.log, payload)
	if err != nil {
		return err
	}
	return wait()
}

// compactDue reports whether the WAL tail should fold into a new base:
// once it holds at least CompactMin events and as many bytes as the
// base. Every base is then paid for by at least its own size in
// records, so lifetime checkpoint bytes stay within twice the record
// bytes, and a hydrate replays at most about a base's worth of records:
// bounded by the state's size, not the session's age.
func (m *Manager) compactDue(e *managedSession) bool {
	min := m.opts.CompactMin
	if min <= 0 {
		min = DefaultCompactMin
	}
	return e.log.Count() >= min && e.log.Size() >= e.baseBytes
}

// compactLocked writes the session's snapshot as a fresh base and
// resets the WAL tail through rebase.
func (m *Manager) compactLocked(e *managedSession) error {
	data, err := e.s.snapshot(false)
	if err != nil {
		return err
	}
	if err := m.rebase(m.basePath(e.id), m.walPath(e.id), e.id, data, &e.log); err != nil {
		return err
	}
	e.baseBytes = int64(len(data))
	return nil
}

// rebase is the one base-write path, shared by session compaction and
// the fleet knowledge store: write data atomically as the base at
// path, then empty the tail *lg, opening it at walPath first if a
// failed write dropped it. Ordering is the crash-safety invariant: the
// base is fsynced and renamed into place BEFORE the tail resets, so a
// crash at any point leaves either the old base+tail or the new base
// with stale tail records, which recovery skips — never a state that
// loses records. The fsynced base supersedes the tail's journal records
// (so the committer's hold on the tail is released). A failed reset
// drops the tail (*lg becomes nil); the owner's next write re-bases.
func (m *Manager) rebase(path, walPath, tmpPrefix string, data []byte, lg **wal.Log) error {
	if err := m.writeAtomic(path, tmpPrefix, data); err != nil {
		return err
	}
	m.checkpointBytes.Add(int64(len(data)))
	m.committer.Forget(walPath)
	if *lg == nil {
		l, _, err := wal.Open(walPath, m.walOptions())
		if err != nil {
			return err
		}
		*lg = l
	}
	if err := (*lg).Reset(); err != nil {
		(*lg).Close()
		*lg = nil
		return err
	}
	m.compactions.Add(1)
	return nil
}

// writeAtomic writes data to path via a dot-prefixed temp file in the
// state directory plus rename, fsyncing the file first (unless
// NoFsync) so the rename never publishes torn contents. Temps orphaned
// by a crash are swept at the next boot.
func (m *Manager) writeAtomic(path, id string, data []byte) error {
	tmp, err := os.CreateTemp(m.stateDir, "."+id+"-*")
	if err != nil {
		return err
	}
	cleanup := func() { tmp.Close(); os.Remove(tmp.Name()) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	m.fsyncs.Add(1) // logical sync point, counted even under NoFsync
	if !m.opts.NoFsync {
		if err := tmp.Sync(); err != nil {
			cleanup()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// hydrateLocked loads an evicted (or never-resident) session back into
// memory: read the base snapshot, open the WAL, install the base's
// state and replay the tail. The hydrated session is bitwise equivalent
// to the one that was evicted.
func (m *Manager) hydrateLocked(e *managedSession) error {
	if e.s != nil {
		return nil
	}
	data, err := os.ReadFile(m.basePath(e.id))
	if err != nil {
		return fmt.Errorf("tune: reading session %q: %w", e.id, err)
	}
	lg, recs, err := wal.Open(m.walPath(e.id), m.walOptions())
	if err != nil {
		return fmt.Errorf("tune: opening wal for session %q: %w", e.id, err)
	}
	s, replayed, err := restore(data, recs, m.know)
	if err != nil {
		lg.Close()
		return fmt.Errorf("tune: restoring session %q: %w", e.id, err)
	}
	e.s, e.log = s, lg
	e.baseBytes = int64(len(data))
	m.replayedEvents.Add(int64(replayed))
	m.hydrations.Add(1)
	return nil
}

// peekSnapshotHeader reads a snapshot's header fields without buffering
// its state: a streaming decode that stops at the "state" key.
// snapshotFile marshals its header first, so this touches only the head
// of the file — boot cost for a fleet of sessions is O(#sessions), not
// O(total state).
func peekSnapshotHeader(path string) (snapshotHeader, error) {
	var h snapshotHeader
	f, err := os.Open(path)
	if err != nil {
		return h, err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	tok, err := dec.Token()
	if err != nil {
		return h, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return h, fmt.Errorf("snapshot is not a JSON object")
	}
	fields := map[string]any{"version": &h.Version, "kind": &h.Kind, "config": &h.Config,
		"iter": &h.Iter, "next": &h.Next, "rollout_phase": &h.RolloutPhase}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return h, err
		}
		dst, ok := fields[keyTok.(string)] // an object key token is always a string
		switch {
		case keyTok == "state":
			return h, h.check()
		case !ok:
			dst = new(json.RawMessage)
		}
		if err := dec.Decode(dst); err != nil {
			return h, err
		}
	}
	return h, h.check()
}

// peekInfo summarizes a not-yet-hydrated session from disk: header
// fields from the base snapshot, then the iter/phase envelope of the
// WAL's final intact record, which reflects every operation since the
// last compaction that hydration will replay.
func (m *Manager) peekInfo(id string) (SessionInfo, error) {
	h, err := peekSnapshotHeader(m.basePath(id))
	if err != nil {
		return SessionInfo{}, err
	}
	cfg := h.Config.withDefaults()
	info := SessionInfo{ID: id, Space: cfg.Space, Iter: h.Iter}
	phase := h.RolloutPhase
	_, last, err := wal.Stat(m.walPath(id))
	if err != nil {
		return SessionInfo{}, err
	}
	var rec walEnvelope
	if json.Unmarshal(last, &rec) == nil { // an empty log has no last record
		info.Iter = rec.Iter
		if rec.Phase != "" {
			phase = rec.Phase
		}
	}
	return info.withRollout(cfg.rolloutMode(), phase), nil
}
