package tune

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/knowledge"
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

// sessionTail is the session id's base and tail, keyed by its id in the
// journal and in its base's temp names.
func (m *Manager) sessionTail(id string) baseTail {
	return baseTail{id: id, prefix: id, basePath: m.basePath(id), walPath: m.walPath(id)}
}

// journalPath is the shared group-commit journal's location. The name
// carries none of the session-file suffixes, so the boot scan never
// mistakes it for a session.
func (m *Manager) journalPath() string {
	return filepath.Join(m.stateDir, "fleet.journal")
}

// recoverJournal patches session WALs and the fleet knowledge tail from
// the shared journal at boot. A crash can leave records whose only
// durable copy is the journal (the log was flushed but its fsync
// deferred to rotation), so each log's journal records that
// contiguously extend its intact tail are appended — and fsynced —
// before the journal is truncated. Records for sessions with no on-disk
// files (deleted before the crash), records out of sequence and a
// deleted-then-recreated id's earlier incarnation are dropped: a
// genuine tail is always contiguous, because rotation fsyncs every log
// before the journal truncates.
func (m *Manager) recoverJournal() error {
	recovered, err := wal.ReadJournal(m.journalPath())
	if err != nil {
		return err
	}
	for id, payloads := range recovered {
		// An empty log anchors at its base: one past the store's lifetime
		// count, or the session's next event.
		var patched int
		switch {
		case id == knowledgeJournalID:
			var base knowledge.Snapshot
			if base, err = m.knowledgeBase(); err == nil {
				patched, err = m.patchLog(m.knowledgeWALPath(), payloads, knowSeq, base.Contributions+1)
			}
		case validID(id) == nil:
			h, herr := peekSnapshotHeader(m.basePath(id))
			if herr != nil {
				continue // no base to anchor a replay: deleted or never durable
			}
			patched, err = m.patchLog(m.walPath(id), payloads, walIdx, int64(h.Next))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		m.journalPatched += patched
	}
	if len(recovered) == 0 {
		return nil
	}
	// Every journaled record now lives in a fsynced session log (or was
	// stale); empty the journal so the next boot starts clean.
	j, _, err := wal.Open(m.journalPath(), m.walOpts)
	if err != nil {
		return err
	}
	defer j.Close()
	return j.Reset()
}

// walIdx is a session record's sequence number: its event index.
func walIdx(rec []byte) (int64, error) {
	var env walEnvelope
	err := json.Unmarshal(rec, &env)
	return int64(env.Idx), err
}

// patchLog appends the journal payloads that contiguously extend the log
// at path and fsyncs the result. seq reads a record's sequence number;
// an empty log's first record must carry first.
func (m *Manager) patchLog(path string, payloads [][]byte, seq func([]byte) (int64, error), first int64) (int, error) {
	lg, recs, err := wal.Open(path, m.walOpts)
	if err != nil {
		return 0, err
	}
	defer lg.Close()
	next := first
	if len(recs) > 0 {
		if next, err = seq(recs[len(recs)-1]); err != nil {
			return 0, fmt.Errorf("final wal record: %w", err)
		}
		next++
	}
	// Each record is journaled once and in order, so one incarnation's
	// sequence numbers strictly increase: everything up to the last
	// non-increase belongs to a deleted incarnation of a since-recreated
	// session id, and only what follows may extend this log.
	seqs := make([]int64, len(payloads))
	live := 0
	for i, p := range payloads {
		if seqs[i], err = seq(p); err != nil {
			return 0, fmt.Errorf("journal payload: %w", err)
		}
		if i > 0 && seqs[i] <= seqs[i-1] {
			live = i
		}
	}
	patched := 0
	for i := live; i < len(payloads); i++ {
		if seqs[i] != next {
			continue // already in the log, pre-base stale or after a gap
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
// handles retries and ErrDurability wrapping). Normal path: write op,
// the record of the op just run, to the tail — one sync point per
// interval, as a plain suggest is staged for the next batch (see
// write), and that one shared fleet-wide by the committer. A nil op
// only re-bases a session whose log is gone.
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
			e.drop()
			return err
		}
	}
	if e.log == nil {
		return m.compactLocked(e)
	}
	if op == nil {
		return nil
	}
	wenc := walEncoders.Get().(*walEncoder)
	defer walEncoders.Put(wenc)
	payload, err := wenc.encode(op)
	if err != nil {
		return err
	}
	// A suggest that power failure loses is re-derived from the log, so it
	// is staged; one that logged fleet advice waits like a report.
	wait := op.Event.Kind != eventSuggest || op.Event.Knowledge != nil
	if err := m.write(&e.baseTail, payload, wait); err != nil {
		return err
	}
	if e.due(m.compactMin) {
		return m.compactLocked(e)
	}
	return nil
}

// compactLocked writes the session's snapshot as a fresh base and
// resets the WAL tail through rebase.
func (m *Manager) compactLocked(e *managedSession) error {
	data, err := e.s.snapshot(false)
	if err != nil {
		return err
	}
	return m.rebase(&e.baseTail, data)
}

// baseTail is the durable form a session and the fleet knowledge store
// share: a base snapshot plus a WAL tail of the records since, keyed by
// id in the shared journal. Its owner serializes every call.
type baseTail struct {
	id, prefix        string // journal id; the base's temp-file prefix
	basePath, walPath string
	log               *wal.Log // nil when dropped: the owner's next write re-bases
	baseBytes         int64    // the on-disk base's size
}

// open reads the base (nil when none was written yet) and opens the
// tail, returning its intact records. The caller drops the tail if it
// cannot restore them.
func (m *Manager) open(b *baseTail) (base []byte, recs [][]byte, err error) {
	if base, err = os.ReadFile(b.basePath); err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	if b.log, recs, err = wal.Open(b.walPath, m.walOpts); err != nil {
		return nil, nil, err
	}
	b.baseBytes = int64(len(base))
	return base, recs, nil
}

// write makes payload durable as the tail's next record: appended and
// flushed, it is staged in the shared journal, whose next batch syncs it
// (a refused stage syncs the tail in place), or, with wait, enqueued to
// wait for that batch. Any failure drops the tail, whose flush state is
// then unknown: appending after it could tear the log, so the owner's
// next write re-bases. A record counts its whole frame in the checkpoint
// bytes.
func (m *Manager) write(b *baseTail, payload []byte, wait bool) error {
	before := b.log.Size()
	err := b.log.Append(payload)
	if err == nil {
		err = b.log.Flush()
	}
	if err == nil && !wait && !m.committer.Stage(b.id, b.log, payload) {
		err = b.log.SyncFile()
	}
	if err == nil && wait {
		var done func() error
		if done, err = m.committer.Enqueue(b.id, b.log, payload); err == nil {
			err = done()
		}
	}
	if err != nil {
		b.drop()
		return err
	}
	m.checkpointBytes.Add(b.log.Size() - before)
	return nil
}

// due is the one compaction rule: the tail folds into a new base once it
// holds at least min records and as many bytes as the base. Every base
// is then paid for by at least its own size in records, so lifetime
// checkpoint bytes stay within twice the record bytes, and a recovery
// replays at most about a base's worth of records: bounded by the
// state's size, not its age.
func (b *baseTail) due(min int) bool {
	return b.log.Count() >= min && b.log.Size() >= b.baseBytes
}

// rebase is the one base-write path: write data atomically as the base,
// then empty the tail, opening it first if a failed write dropped it.
// Ordering is the crash-safety invariant: the base is fsynced and
// renamed into place BEFORE the tail resets, so a crash at any point
// leaves either the old base+tail or the new base with stale tail
// records, which recovery skips — never a state that loses records. The
// fsynced base supersedes the tail's journal records (so the
// committer's hold on the tail is released). A failed reset drops the
// tail; the owner's next write re-bases.
func (m *Manager) rebase(b *baseTail, data []byte) error {
	if err := wal.WriteAtomic(b.basePath, b.prefix, data, m.walOpts); err != nil {
		return err
	}
	m.checkpointBytes.Add(int64(len(data)))
	b.baseBytes = int64(len(data))
	m.committer.Forget(b.walPath)
	if b.log == nil {
		l, _, err := wal.Open(b.walPath, m.walOpts)
		if err != nil {
			return err
		}
		b.log = l
	}
	if err := b.log.Reset(); err != nil {
		b.drop()
		return err
	}
	m.compactions.Add(1)
	return nil
}

// drop closes and forgets the tail's handle without a sync: the records
// the journal holds for it stay the committer's debt, synced by path.
func (b *baseTail) drop() error {
	if b.log == nil {
		return nil
	}
	err := b.log.Close()
	b.log = nil
	return err
}

// close re-bases a dropped tail through rebase, then drops the handle.
func (b *baseTail) close(rebase func() error) error {
	if b.log == nil {
		if err := rebase(); err != nil {
			return err
		}
	}
	return b.drop()
}

// scanStateDir is the boot scan: it sweeps the temps a crash orphaned
// and the tails no base anchors, and registers (but does not hydrate)
// every session found in the state directory.
func (m *Manager) scanStateDir() error {
	entries, err := os.ReadDir(m.stateDir)
	if err != nil {
		return fmt.Errorf("tune: reading state dir: %w", err)
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
		info, err := m.peekInfo(id)
		if err != nil {
			return fmt.Errorf("tune: scanning session %q: %w", id, err)
		}
		m.sessions[id] = &managedSession{baseTail: m.sessionTail(id), info: info}
	}
	return nil
}

// removeFiles deletes the session's durable files.
func (m *Manager) removeFiles(id string) error {
	// Journal records for a deleted session are moot, resident or
	// evicted: release the rotation hold before the log's file goes.
	m.committer.Forget(m.walPath(id))
	for _, p := range []string{m.basePath(id), m.walPath(id)} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// hydrateLocked loads an evicted (or never-resident) session back into
// memory: open its base and tail, install the base's state and replay
// the tail. The hydrated session is bitwise equivalent to the one that
// was evicted.
func (m *Manager) hydrateLocked(e *managedSession) error {
	if e.s != nil {
		return nil
	}
	base, recs, err := m.open(&e.baseTail)
	var replayed int
	if err == nil {
		e.s, replayed, err = restore(base, recs, m.know)
	}
	if err != nil {
		e.drop()
		return fmt.Errorf("tune: hydrating session %q: %w", e.id, err)
	}
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
