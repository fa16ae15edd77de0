package tune

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/knowledge"
)

// knowAdapter connects one session's tuner to the fleet knowledge base
// and to each op's WAL record. Live, it records what each op derived on
// the op's own event: the advice every fleet query returned (nil
// records a miss), the hyperparameters a refit installed, whether a
// re-cluster check adopted a new clustering and what an assessed
// recommendation or a probe decided. Replaying an event, it hands the
// logged results back instead of computing them: the fleet store evolves
// as other sessions contribute, so only the log can reproduce what THIS
// session saw, and a logged search, check, assessment or recenter
// already decided what recomputing it would. It is called from the
// tuner under the session mutex, on the session's own goroutine — it
// must not take s.mu itself.
type knowAdapter struct {
	fleet   *fleetKnowledge // nil: every query misses, contributions drop
	enabled bool            // Config.Knowledge: the tuner queries and contributes
	engine  string
	space   string

	// op is the event of the op in progress: live, what the op derives is
	// recorded on it; in a replay, the logged event its derivations are
	// read from, with queried, refitted, adopted and decided what the
	// replay consumed and re-derived of it, and misfit set when the
	// replay reached an assessment the event's decision does not fit.
	op        *event
	replaying bool
	queried   int
	refitted  bool
	adopted   bool
	decided   bool
	misfit    bool
}

// begin starts recording (live) or replaying the derivations of one op.
func (k *knowAdapter) begin(op *event) {
	k.op, k.queried, k.refitted, k.adopted, k.decided, k.misfit = op, 0, false, false, false, false
}

// replayed reports whether the replayed op consumed exactly the
// derivations its event logged.
func (k *knowAdapter) replayed() error {
	switch {
	case k.queried != len(k.op.Knowledge):
		return fmt.Errorf("replay made %d fleet queries, the op logged %d", k.queried, len(k.op.Knowledge))
	case k.op.Fit != nil && !k.refitted:
		return errors.New("replay reached no refit point, the op logged a refit")
	case k.op.Adopted && !k.adopted:
		return errors.New("replay adopted no clustering, the op's re-cluster check adopted one")
	case k.op.Decision != nil && !k.decided:
		return errors.New("replay reached no assessment, the op logged a decision")
	case k.misfit:
		return errors.New("replay reached an assessment the op's logged decision does not fit")
	}
	return nil
}

// Fleet implements core.Knowledge.
func (k *knowAdapter) Fleet() bool { return k.enabled }

// Query implements core.Knowledge. Live: ask the fleet store and log the
// result. Replay: hand back the op's next logged result.
func (k *knowAdapter) Query(ctx []float64) *knowledge.Advice {
	if k.replaying {
		k.queried++
		if k.queried > len(k.op.Knowledge) {
			return nil // a query the op did not log: replayed reports it
		}
		return k.op.Knowledge[k.queried-1]
	}
	var adv *knowledge.Advice
	if k.fleet != nil {
		adv = k.fleet.Query(k.engine, k.space, ctx)
	}
	k.op.Knowledge = append(k.op.Knowledge, adv)
	return adv
}

// Contribute implements core.Knowledge: deposit one safe observation or
// promotion into the fleet store. Suppressed during replay — the store's
// own durability already holds everything contributed live.
func (k *knowAdapter) Contribute(ctx []float64, cfg knowledge.SafeConfig, hyper []float64) {
	if k.replaying || k.fleet == nil {
		return
	}
	k.fleet.Contribute(knowledge.Contribution{
		Engine:  k.engine,
		Space:   k.space,
		Context: append([]float64(nil), ctx...),
		Config:  cfg,
		Hyper:   hyper,
	})
}

// Refit implements core.Knowledge. Live: run the search and log what it
// installed. Replay: hand back the logged result (nil when the live
// search changed nothing) without searching.
func (k *knowAdapter) Refit(fit func() *gp.Refit) *gp.Refit {
	if !k.replaying {
		k.op.Fit = fit()
		return nil
	}
	k.refitted = true
	return k.op.Fit
}

// Recluster implements core.Knowledge. Live: run the check and log
// whether it adopted. Replay: skip a check the op logged as kept, re-run
// an adopted one and verify that it adopts again.
func (k *knowAdapter) Recluster(check func() bool) {
	if !k.replaying {
		k.op.Adopted = check()
		return
	}
	if k.op.Adopted {
		k.adopted = check()
	}
}

// Decide implements core.Knowledge. Live: run the assessment or the
// probe's recenter and log its decision. Replay: install the logged
// decision, or decide live where the op logged none (a record written
// before suggests, or probes, logged theirs).
func (k *knowAdapter) Decide(decide func(logged *core.Decision) *core.Decision) {
	if !k.replaying {
		k.op.Decision = decide(nil)
		return
	}
	k.decided = true
	installed := decide(k.op.Decision)
	k.misfit = k.op.Decision != nil && installed == nil
}

// On-disk layout of the durable fleet knowledge base under the
// Manager's state directory:
//
//	fleet.knowledge      base snapshot (knowledge.Snapshot JSON, written
//	                     atomically)
//	fleet.knowledge-wal  append-only tail: one contribution per record
//	                     since the base was compacted
//
// Neither name matches a session-file suffix (".base.json", ".wal",
// ".json"), so the boot scan never mistakes them for a session. The pair
// is a session's base+tail, written, failed and compacted by the same
// code (baseTail): a record is staged in fleet.journal, which boot
// patches back first, and synced by the next group-commit batch (a
// refused stage syncs the tail in place). Recovery restores the base and
// replays the tail's contributions; each record carries the store's
// lifetime contribution count, so records already folded into the base
// (a crash between the base rename and the log reset) are skipped
// instead of double-counted. A torn final record — the mid-contribution
// crash — is dropped by the WAL's own tail truncation, losing at most
// that one advisory deposit.
const (
	knowledgeBaseFile = "fleet.knowledge"
	knowledgeWALFile  = "fleet.knowledge-wal"
	// knowledgeJournalID keys the store's records in the shared journal;
	// its leading dot fails validID, so no session id can collide with it.
	knowledgeJournalID = ".fleet.knowledge"
	// knowledgeCompactMin is the store's minimum tail length in the one
	// compaction rule (baseTail.due). It is higher than a session's
	// DefaultCompactMin because the store's base, tens to hundreds of KB,
	// is rewritten for the whole fleet: at 64, fleet-mixed rewrote it
	// about three times as often and its WAL bytes per interval rose 6 %.
	knowledgeCompactMin = 256
)

func (m *Manager) knowledgeBasePath() string {
	return filepath.Join(m.stateDir, knowledgeBaseFile)
}

func (m *Manager) knowledgeWALPath() string {
	return filepath.Join(m.stateDir, knowledgeWALFile)
}

// knowRecord frames one contribution in the knowledge WAL. Seq is the
// store's lifetime contribution count after applying it; recovery skips
// records with Seq at or below the base snapshot's count.
type knowRecord struct {
	Seq int64                  `json:"seq"`
	C   knowledge.Contribution `json:"c"`
}

// knowSeq is a contribution record's sequence number.
func knowSeq(rec []byte) (int64, error) {
	var r knowRecord
	err := json.Unmarshal(rec, &r)
	return r.Seq, err
}

// knowledgeBase reads the store's base snapshot, the zero Snapshot if
// none was written yet. Its Contributions is the lifetime count folded
// into it.
func (m *Manager) knowledgeBase() (knowledge.Snapshot, error) {
	data, err := os.ReadFile(m.knowledgeBasePath())
	if err != nil && !os.IsNotExist(err) {
		return knowledge.Snapshot{}, err
	}
	return parseKnowledgeBase(data)
}

// parseKnowledgeBase parses a base snapshot's bytes, nil meaning none.
func parseKnowledgeBase(data []byte) (snap knowledge.Snapshot, err error) {
	if data != nil {
		if err = json.Unmarshal(data, &snap); err != nil {
			err = fmt.Errorf("parsing %s: %w", knowledgeBaseFile, err)
		}
	}
	return snap, err
}

// fleetKnowledge is the Manager-owned fleet knowledge base: one shared
// knowledge.Store, durable as a session is, through the same baseTail.
// The store itself is concurrency-safe; mu serializes the tail's writes
// and rebases across sessions.
type fleetKnowledge struct {
	store *knowledge.Store
	m     *Manager

	mu       sync.Mutex
	baseTail // its log is nil without a state directory, and while dropped
}

// openKnowledge builds the manager's fleet knowledge base, restoring the
// base snapshot and replaying the contribution WAL when a state
// directory is configured.
func (m *Manager) openKnowledge() (*fleetKnowledge, error) {
	k := &fleetKnowledge{store: knowledge.NewStore(knowledge.DefaultParams()), m: m, baseTail: baseTail{
		id: knowledgeJournalID, prefix: knowledgeBaseFile, basePath: m.knowledgeBasePath(), walPath: m.knowledgeWALPath()}}
	if m.stateDir == "" {
		return k, nil
	}
	data, recs, err := m.open(&k.baseTail)
	var base knowledge.Snapshot
	if err == nil {
		base, err = parseKnowledgeBase(data)
	}
	if err == nil && base.Version != 0 {
		err = k.store.Restore(base)
	}
	for i := 0; err == nil && i < len(recs); i++ {
		var r knowRecord
		if err = json.Unmarshal(recs[i], &r); err != nil {
			err = fmt.Errorf("knowledge wal record %d: %w", i, err)
		} else if r.Seq > base.Contributions { // else already folded into the base
			k.store.Contribute(r.C)
		}
	}
	if err != nil {
		k.drop()
		return nil, err
	}
	return k, nil
}

// Query answers from the shared store.
func (f *fleetKnowledge) Query(engine, space string, ctx []float64) *knowledge.Advice {
	return f.store.Query(engine, space, ctx)
}

// Contribute deposits into the store and makes the deposit durable
// through the session's write: it is staged in the shared journal, whose
// next batch (the report's) syncs it, and a refused stage syncs the tail
// in place. The store is advisory, so durability failures never
// propagate to the tuning operation: a failed write drops the tail and
// the same call re-bases, and a tail that is still dropped is re-based
// by the next contribution or by Close. The tail compacts under the
// session's rule, with knowledgeCompactMin as its minimum.
func (f *fleetKnowledge) Contribute(c knowledge.Contribution) {
	f.mu.Lock()
	defer f.mu.Unlock()
	before := f.store.Stats().Contributions
	f.store.Contribute(c)
	seq := f.store.Stats().Contributions
	if seq == before || f.m.stateDir == "" {
		return // rejected as invalid, or nothing to persist to
	}
	if f.log != nil {
		// f.mu is the contribution WAL's serialization point: Seq must
		// match append order (and journal order), so the marshal and the
		// stage cannot move off-lock. Queries never take f.mu.
		data, err := json.Marshal(knowRecord{Seq: seq, C: c}) //tunevet:ignore lockhold -- seq-ordered WAL append: marshal must stay inside the serialization point; queries never take f.mu, only other contributions wait on it
		if err != nil {
			return
		}
		if f.m.write(&f.baseTail, data, false) == nil && !f.due(knowledgeCompactMin) {
			return
		}
	}
	f.rebaseLocked() // a failure leaves the tail dropped, for the next contribution or Close
}

// rebaseLocked folds the store into a fresh base snapshot and resets
// (or reopens) the WAL through the Manager's rebase: a crash between
// the base's rename and the log's reset leaves stale tail records, which
// recovery skips by sequence number.
func (f *fleetKnowledge) rebaseLocked() error {
	data, err := json.Marshal(f.store.Snapshot())
	if err != nil {
		return err
	}
	return f.m.rebase(&f.baseTail, data)
}

// stats returns the store's counters.
func (f *fleetKnowledge) stats() knowledge.Stats {
	return f.store.Stats()
}

// export serializes the store's full snapshot.
func (f *fleetKnowledge) export() ([]byte, error) {
	data, err := json.MarshalIndent(f.store.Snapshot(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// importSnapshot merges a snapshot produced by another fleet's export
// into the store, then rebases so the merged knowledge is durable.
func (f *fleetKnowledge) importSnapshot(data []byte) (int, error) {
	var snap knowledge.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("tune: %w: parsing knowledge snapshot: %w", ErrInvalid, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.store.Merge(snap)
	if err != nil {
		return 0, fmt.Errorf("tune: %w: %w", ErrInvalid, err)
	}
	if f.m.stateDir == "" {
		return n, nil
	}
	return n, f.rebaseLocked()
}

// Close re-bases a store whose tail is still dropped, then closes the
// contribution WAL without a sync: its staged records stay the
// committer's, whose Close syncs the tail by path.
func (f *fleetKnowledge) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m.stateDir == "" {
		return nil
	}
	return f.close(f.rebaseLocked)
}
