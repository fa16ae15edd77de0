package tune

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/knowledge"
	"repro/internal/mathx"
)

// SnapshotVersion is the version of the session snapshot JSON schema,
// and the only one Restore and the Manager accept. The schema is
// append-only within a version: fields may be added, never renamed,
// repurposed or removed without a bump. Version 10 is the OnlineTune-only
// state format: a header (config, iter, the global index of the next
// event, rollout_phase) emitted first so the Manager's boot scan can
// summarize a session from the head of its base snapshot, then the
// session's exact state; its WAL tail holds one event per op, carrying
// everything the op derived.
const SnapshotVersion = 10

// snapshotKind tags the document so unrelated JSON is rejected early.
const snapshotKind = "tune.Session"

// Event kinds in the session log: one event per operation.
const (
	eventSuggest = "suggest"
	eventReport  = "report"
)

// event is one logged session operation, together with everything it
// derived that replay either cannot recompute or need not: the advice
// its fleet queries returned, what a suggest's assessment or probe
// decided, the hyperparameters a refit installed, whether a re-cluster
// check adopted a new clustering, and the rollout decision it
// triggered. Every source of randomness is seeded, so replaying events
// on a session restored from a snapshot reproduces the session that
// logged them bit for bit: the WAL tail on top of a base's state. An op
// and its derivations share one CRC-framed record, so a torn log never
// separates them.
type event struct {
	Kind    string   `json:"kind"`
	Outcome *Outcome `json:"outcome,omitempty"`
	// Ctx is the context a report's featurization derived, and Tok the
	// vocabulary tokens it admitted, in order. The logged outcome leaves
	// out the statements and optimizer stats that only featurization
	// reads. A report without Ctx (written before reports logged it)
	// carries them and is featurized on replay.
	Ctx mathx.Floats `json:"ctx,omitempty"`
	Tok []string     `json:"tok,omitempty"`
	// Knowledge holds the advice each fleet query returned, in query
	// order; a nil entry is a miss.
	Knowledge []*knowledge.Advice `json:"knowledge,omitempty"`
	// Decision is what a suggest's assessment decided: the recenter, the
	// switching verdict, the importance oracle's axes at a line switch,
	// the pick, the safe-set size, the white-box vetoes and rules; for a
	// probe, its recenter alone. Absent for a suggest that held or stayed
	// on a cold model's initial or warm configuration.
	Decision *core.Decision `json:"d,omitempty"`
	// Fit holds the hyperparameters a report's refit installed.
	Fit *gp.Refit `json:"fit,omitempty"`
	// Adopted marks a report whose re-cluster check adopted a new
	// clustering.
	Adopted bool `json:"adopted,omitempty"`
	// Rollout carries the provenance of the rollout decision a report
	// triggered (promote, rollback, switchover or chain rollback).
	Rollout *RolloutEvent `json:"rollout,omitempty"`
}

// sessionState is the exact state of a session: everything the next
// Suggest or Report reads that NewSession does not derive from the
// Config. The tuner's state is embedded, so its observation count and
// cluster models sit at the top of the block.
type sessionState struct {
	// LastWorkload is the last reported workload (absent before the
	// first report); the other Last fields complete the observation the
	// next Suggest plans with and what the last one advised.
	LastWorkload *Workload `json:"last_workload,omitempty"`
	LastCtx      []float64 `json:"last_ctx"`
	LastMet      Metrics   `json:"last_metrics"`
	LastTau      float64   `json:"last_tau"`
	LastUnit     []float64 `json:"last_unit"`
	// LastConfig is stored, not decoded from LastUnit: before the first
	// suggest it is the configured initial configuration.
	LastConfig KnobConfig `json:"last_config"`
	// TunerUnit is the tuner adapter's last proposal.
	TunerUnit []float64 `json:"tuner_unit"`
	// Vocabulary is the featurizer's admitted tokens in admission order.
	Vocabulary []string `json:"vocabulary"`
	core.State
}

// snapshotHeader is the prefix of a snapshot document: everything the
// Manager's boot scan needs, marshaled BEFORE the state, so
// peeking a base snapshot's header never reads past the head of the
// file.
type snapshotHeader struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Config  Config `json:"config"`
	Iter    int    `json:"iter"`
	// Next is the global index of the session's next event: the snapshot
	// reflects every event before it, and WAL records from it on are the
	// tail a recovery replays.
	Next int `json:"next"`
	// RolloutPhase duplicates State.Rollout's phase in the header.
	RolloutPhase string `json:"rollout_phase,omitempty"`
}

// check validates the version envelope: the one place a document's kind
// and version are judged, for Restore and the boot scan alike.
func (h snapshotHeader) check() error {
	if h.Kind != snapshotKind {
		return fmt.Errorf("tune: snapshot kind %q is not %q", h.Kind, snapshotKind)
	}
	if h.Version != SnapshotVersion {
		return fmt.Errorf("tune: snapshot version %d not supported (want %d)", h.Version, SnapshotVersion)
	}
	return nil
}

// snapshotFile is the versioned JSON document Snapshot produces: the
// header, then the state.
type snapshotFile struct {
	snapshotHeader
	State *sessionState `json:"state"`
}

// Snapshot serializes the session as versioned, indented JSON: its
// configuration and its exact state now. The bytes are self-contained
// — Restore rebuilds an equivalent session from them alone.
func (s *Session) Snapshot() ([]byte, error) {
	return s.snapshot(true)
}

// snapshot serializes the session, indented or compact (the form of the
// Manager's base files).
func (s *Session) snapshot(indent bool) ([]byte, error) {
	s.mu.Lock()
	f := snapshotFile{
		snapshotHeader: snapshotHeader{
			Version:      SnapshotVersion,
			Kind:         snapshotKind,
			Config:       s.cfg,
			Iter:         s.iter,
			Next:         s.next,
			RolloutPhase: string(s.rolloutLocked().Phase),
		},
		State: s.exportLocked(),
	}
	s.mu.Unlock()
	// Marshal off-lock (encoding must not stall concurrent Suggest/Report):
	// State is a deep copy built under the lock and Config is immutable
	// after NewSession.
	if !indent {
		return json.Marshal(f)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// exportLocked returns a copy of the session's exact state.
func (s *Session) exportLocked() *sessionState {
	st := &sessionState{TunerUnit: s.tuner.lastUnit, State: s.tuner.T.State()}
	if s.iter > 0 {
		w := WorkloadFromSnapshot(s.lastSnap)
		st.LastWorkload = &w
	}
	st.LastCtx, st.LastMet, st.LastTau = s.lastCtx, s.lastMet, s.lastTau
	st.LastUnit, st.LastConfig = s.lastUnit, s.lastCfg
	st.Vocabulary = s.feat.Vocabulary()
	return st
}

// importState installs the state a snapshot header describes on a
// session fresh from NewSession, rejecting one that does not fit its
// space or featurizer.
func (s *Session) importState(h snapshotHeader, st *sessionState) error {
	iter := h.Iter
	dim := s.space.Dim()
	if iter < 0 || (iter > 0) != (st.LastWorkload != nil) || len(st.LastCtx) != s.feat.Dim() ||
		len(st.LastUnit) != dim || len(st.TunerUnit) != dim {
		return errors.New("tune: snapshot state does not fit the session's space")
	}
	if err := s.feat.SetVocabulary(st.Vocabulary); err != nil {
		return err
	}
	s.tuner.lastUnit = st.TunerUnit
	// Each suggest, one event, makes at most one recommendation.
	if err := s.tuner.T.SetState(st.State, h.Next); err != nil {
		return err
	}
	s.iter, s.next = iter, h.Next
	if st.LastWorkload != nil {
		s.lastSnap = st.LastWorkload.snapshot(iter - 1)
		s.lastSnap.Queries = nil // a base written before reports logged their context carries them
		s.lastOLAP = s.lastSnap.OLAP
	}
	s.lastCtx, s.lastMet, s.lastTau = st.LastCtx, st.LastMet, st.LastTau
	s.lastUnit, s.lastCfg = st.LastUnit, st.LastConfig
	return nil
}

// Restore rebuilds a session from Snapshot bytes: it installs the
// snapshot's state on a freshly constructed session with the same
// Config. Every source of
// randomness is seeded or restored by position, so the restored
// session's subsequent recommendations are bitwise-identical to those an
// uninterrupted session would have produced.
func Restore(data []byte) (*Session, error) {
	s, _, err := restore(data, nil, nil)
	return s, err
}

// parseSnapshot decodes a snapshot document and checks its envelope.
func parseSnapshot(data []byte) (snapshotFile, error) {
	var f snapshotFile
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("tune: parsing snapshot: %w", err)
	}
	return f, f.check()
}

// restore is snapshot+tail recovery: it rebuilds a session from a base
// snapshot document plus the WAL records the Manager accumulated since
// that base was compacted (none for a bare Restore): it installs the
// base's state, then replays only the tail, decoded on its own goroutine
// meanwhile. fleet is the Manager's knowledge store, so a hydrated
// session resumes contributing to (and querying) the live store once
// replay finishes; replay itself never touches it — it consumes the
// logged advice. It returns how many events it replayed.
func restore(base []byte, recs [][]byte, fleet *fleetKnowledge) (*Session, int, error) {
	var stop atomic.Bool
	defer func() { stop.Store(true) }() // a closure: a method value links (*atomic.Bool).Store, moving the GP hot loops
	tail := decodeTail(recs, &stop)
	f, err := parseSnapshot(base)
	if err != nil {
		return nil, 0, err
	}
	if f.State == nil {
		return nil, 0, errors.New("tune: snapshot carries no state")
	}
	f.Config.fleet = fleet
	s, err := NewSession(f.Config)
	if err != nil {
		return nil, 0, err
	}
	if err := s.importState(f.snapshotHeader, f.State); err != nil {
		return nil, 0, err
	}
	if err := s.replay(tail); err != nil {
		return nil, 0, err
	}
	return s, s.next - f.Next, nil
}

// replay replays the decoded tail into s as its records arrive. Records
// before s.next predate the base and are skipped; the rest must be
// contiguous. Every op installs the derivations its event logged instead
// of recomputing them, and must reach exactly those: a suggest applies
// only its state effects, installing its logged decision in place of
// the assessment's GP work (it still makes the generator's draws, the
// subspace step and the white-box conflict reports), and a report
// admits its logged tokens and installs its logged context in place of
// featurizing, and must make the rollout decision its event logged.
func (s *Session) replay(tail <-chan decodedRecord) error {
	s.know.replaying = true
	defer func() { s.know.replaying, s.know.op = false, nil }()
	for d := range tail {
		ev, err := &d.rec.Event, d.err
		s.know.begin(ev)
		switch {
		case err != nil:
		case d.rec.Idx < s.next:
			continue // predates the base (or a re-appended duplicate)
		case d.rec.Idx != s.next:
			err = fmt.Errorf("event index %d, want %d (gap in the tail)", d.rec.Idx, s.next)
		case ev.Kind == eventSuggest:
			s.proposeLocked()
		case ev.Kind != eventReport:
			err = fmt.Errorf("unknown kind %q", ev.Kind)
		case ev.Outcome == nil:
			err = errors.New("report without outcome")
		case ev.Ctx != nil && len(ev.Ctx) != s.feat.Dim():
			err = fmt.Errorf("logged context of %d values, want %d", len(ev.Ctx), s.feat.Dim())
		default:
			if err = s.feat.Admit(ev.Tok); err != nil {
				break
			}
			if got := s.reportLocked(*ev.Outcome, ev); !sameDecision(got, ev.Rollout) {
				err = fmt.Errorf("replay made rollout decision %+v, the op logged %+v", got, ev.Rollout)
			}
		}
		if err == nil {
			err = s.know.replayed()
		}
		if err != nil {
			return &tailError{d.i, err}
		}
		s.next++
	}
	return nil
}

// tailError is replay's refusal of the tail at its record i.
type tailError struct {
	i   int
	err error
}

func (e *tailError) Error() string { return fmt.Sprintf("tune: wal record %d: %v", e.i, e.err) }
func (e *tailError) Unwrap() error { return e.err }

// sameDecision reports whether two rollout decisions agree in kind and
// iteration (nil: no decision).
func sameDecision(a, b *RolloutEvent) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Kind == b.Kind && a.Iter == b.Iter
}
