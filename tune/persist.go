package tune

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

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
// Recovery installs the base's state, replays the tail through the same
// rollout-verification cursor Restore uses, and arrives at a session
// bitwise-identical to one that never restarted.
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

// walRecord is the JSON payload of one WAL frame: a single session
// event plus enough envelope to recover without parsing the base first.
// Idx is the event's index in the session's global event log, so replay
// can skip records that predate the current base (its header's Next; a
// crash between the base's rename and the log's reset leaves such stale
// records) and detect gaps. Iter and Phase mirror the session counters
// AFTER the batch containing this record, so the boot scan can summarize
// an evicted session from the log's final record alone.
type walRecord struct {
	Idx   int    `json:"idx"`
	Iter  int    `json:"iter"`
	Phase string `json:"phase,omitempty"`
	Event event  `json:"event"`
}

// decodeTail turns recovered WAL payloads into the event tail that
// follows a base snapshot whose next event is next. Records with
// Idx < next are stale remnants of the pre-compaction log and are
// skipped; anything else must be contiguous.
func decodeTail(recs [][]byte, next int) ([]event, error) {
	var tail []event
	for i, data := range recs {
		var rec walRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("tune: wal record %d: %w", i, err)
		}
		if rec.Idx < next {
			continue // predates the base (or a re-appended duplicate)
		}
		if rec.Idx != next {
			return nil, fmt.Errorf("tune: wal record %d: event index %d, want %d (gap in the tail)", i, rec.Idx, next)
		}
		tail = append(tail, rec.Event)
		next++
	}
	return tail, nil
}

// walEncoder is pooled scratch for marshaling walRecords: every record
// of one persist encodes into a single reused buffer, so the hot path
// allocates nothing for checkpoint framing at steady state. The encoder
// produces byte-for-byte what json.Marshal would (Encode is Marshal
// plus a newline, stripped here), keeping WAL contents — and therefore
// replay — bitwise identical to the unpooled path.
type walEncoder struct {
	buf      bytes.Buffer
	enc      *json.Encoder
	ends     []int
	payloads [][]byte
}

var walEncoders = sync.Pool{New: func() any { return new(walEncoder) }}

// encode marshals one walRecord per event and returns per-record
// payload views into the shared buffer — valid until the encoder is
// reused. Offsets are recorded during encoding and sliced only at the
// end, because the buffer may reallocate as it grows.
func (w *walEncoder) encode(evs []event, start, iter int, phase string) ([][]byte, error) {
	if w.enc == nil {
		w.enc = json.NewEncoder(&w.buf)
	}
	w.buf.Reset()
	w.ends = w.ends[:0]
	for i, ev := range evs {
		if err := w.enc.Encode(walRecord{Idx: start + i, Iter: iter, Phase: phase, Event: ev}); err != nil {
			return nil, err
		}
		w.ends = append(w.ends, w.buf.Len())
	}
	data := w.buf.Bytes()
	w.payloads = w.payloads[:0]
	prev := 0
	for _, end := range w.ends {
		w.payloads = append(w.payloads, data[prev:end-1]) // strip Encode's trailing newline
		prev = end
	}
	return w.payloads, nil
}

// tryPersistLocked makes the session's state durable once (the caller
// handles retries and ErrDurability wrapping). Normal path: append the
// events since the persisted cursor to the WAL and group-commit them —
// O(1) I/O per operation, with the fsync itself shared fleet-wide when
// the manager's committer is on — then let the session drop them. The
// base snapshot is rewritten only on the first write (creation), after
// a WAL write error (the log is dropped so the next attempt re-bases
// atomically), or when compaction is due.
func (m *Manager) tryPersistLocked(e *managedSession) error {
	if m.stateDir == "" || e.s == nil {
		return nil
	}
	if m.checkpointFailure != nil {
		// Test seam: injected durability faults.
		if err := m.checkpointFailure(); err != nil {
			return err
		}
	}
	if e.log == nil {
		return m.compactLocked(e)
	}
	evs := e.s.eventsSince(e.persisted)
	if len(evs) == 0 {
		return nil
	}
	iter, phase := e.s.Iter(), e.s.RolloutPhase()
	before := e.log.Size()
	wenc := walEncoders.Get().(*walEncoder)
	defer walEncoders.Put(wenc)
	payloads, err := wenc.encode(evs, e.persisted, iter, phase)
	if err != nil {
		return err
	}
	for _, data := range payloads {
		if err := e.log.Append(data); err != nil {
			e.dropLogLocked()
			return err
		}
	}
	if err := m.commitTail(e, payloads); err != nil {
		// The buffered frames may have hit disk partially; appending after
		// an unknown flush state could tear the middle of the log. Drop
		// the handle — the retry path rewrites an atomic base instead.
		e.dropLogLocked()
		return err
	}
	e.persisted += len(evs)
	e.s.dropPersisted(e.persisted)
	m.checkpointBytes.Add(e.log.Size() - before)
	if m.compactDue(e) {
		return m.compactLocked(e)
	}
	return nil
}

// commitTail makes the records just appended to e.log durable. Without
// a committer this is the log's own flush+fsync. With one, the log is
// flushed to the OS and the payloads enqueue with the shared committer:
// the wait returns when the journal's batch fsync (or, degraded, this
// log's own fsync) covers them — same durability contract, ~1/batch the
// fsyncs. Enqueue copies the payloads before returning, so the pooled
// encoder backing them can be reused as soon as this returns.
func (m *Manager) commitTail(e *managedSession, payloads [][]byte) error {
	if m.committer == nil {
		return e.log.Commit()
	}
	if err := e.log.Flush(); err != nil {
		return err
	}
	wait, err := m.committer.Enqueue(e.id, e.log, payloads)
	if err != nil {
		// Committer already shut down (a request racing Close): degrade
		// to a per-session fsync rather than failing the operation.
		return e.log.Commit()
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
// resets the WAL tail. Ordering is the crash-safety invariant: the base
// is written to a temp file, fsynced and renamed into place BEFORE the
// log is reset, so a crash at any point leaves either the old base+tail
// or the new base with stale tail records (skipped by index on
// recovery) — never a state that loses events.
func (m *Manager) compactLocked(e *managedSession) error {
	data, next, err := e.s.snapshot(false)
	if err != nil {
		return err
	}
	if err := m.writeAtomic(m.basePath(e.id), e.id, data); err != nil {
		return err
	}
	m.checkpointBytes.Add(int64(len(data)))
	if e.log == nil {
		lg, _, err := wal.Open(m.walPath(e.id), m.walOptions())
		if err != nil {
			return err
		}
		e.log = lg
	}
	if err := e.log.Reset(); err != nil {
		e.dropLogLocked()
		return err
	}
	if m.committer != nil {
		// The fsynced base now supersedes every journal record for this
		// session: release the rotation hold on its log.
		m.committer.Forget(e.log.Path())
	}
	e.persisted, e.baseBytes = next, int64(len(data))
	e.s.dropPersisted(next)
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
	s, err := restore(data, recs, m.know)
	if err != nil {
		lg.Close()
		return fmt.Errorf("tune: restoring session %q: %w", e.id, err)
	}
	e.s, e.log = s, lg
	e.persisted, e.baseBytes = s.nextEvent(), int64(len(data))
	m.replayedEvents.Add(int64(s.EventCount()))
	s.dropPersisted(e.persisted)
	m.hydrations.Add(1)
	return nil
}

// peekSnapshotHeader reads a snapshot's header fields without buffering
// its state or event log: a streaming decode that stops at the "state"
// or "events" key. snapshotFile marshals its header first, so this
// touches only the head of the file — boot cost for a fleet of sessions
// is O(#sessions), not O(total state).
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
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return h, err
		}
		key, _ := keyTok.(string)
		switch key {
		case "version":
			err = dec.Decode(&h.Version)
		case "kind":
			err = dec.Decode(&h.Kind)
		case "config":
			err = dec.Decode(&h.Config)
		case "iter":
			err = dec.Decode(&h.Iter)
		case "next":
			err = dec.Decode(&h.Next)
		case "rollout_phase":
			err = dec.Decode(&h.RolloutPhase)
		case "events", "state":
			return h, h.check()
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return h, err
		}
	}
	return h, h.check()
}

// peekInfo fills a not-yet-hydrated entry's SessionInfo from disk:
// header fields from the base snapshot, then the iter/phase envelope of
// the WAL's final record, which reflects every operation since the last
// compaction.
func (m *Manager) peekInfo(e *managedSession) error {
	h, err := peekSnapshotHeader(m.basePath(e.id))
	if err != nil {
		return err
	}
	cfg := h.Config.withDefaults()
	info := SessionInfo{ID: e.id, Space: cfg.Space, Iter: h.Iter}
	phase := h.RolloutPhase
	_, last, err := wal.Stat(m.walPath(e.id))
	if err != nil {
		return err
	}
	if last != nil {
		var rec walRecord
		if err := json.Unmarshal(last, &rec); err == nil {
			info.Iter = rec.Iter
			if rec.Phase != "" {
				phase = rec.Phase
			}
		}
	}
	e.setInfo(info.withRollout(cfg.rolloutMode(), phase))
	return nil
}
