package tune

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/rollout"
)

// SnapshotVersion is the version of the session snapshot JSON schema,
// and the only one Restore and the Manager accept. The schema is
// append-only within a version: fields may be added, never renamed,
// repurposed or removed without a bump. Version 8 is the OnlineTune-only
// state format: a header (config, iter, the global index of the next
// event, rollout_phase) emitted first so the Manager's boot scan can
// summarize a session from the head of its base snapshot, then the
// session's exact state.
const SnapshotVersion = 8

// snapshotKind tags the document so unrelated JSON is rejected early.
const snapshotKind = "tune.Session"

// Event kinds in the session log. Rollout decision events
// (rollout.EventPromote / EventRollback / EventSwitchover /
// EventChainRollback) record rollout decisions; they are derived — a
// replayed report regenerates them — and serve as integrity checks
// during Restore.
const (
	eventSuggest = "suggest"
	eventReport  = "report"
	// eventKnowledge records one fleet-knowledge query and the advice it
	// returned. Derived like promote/rollback — a replayed suggest
	// regenerates it — but it also CARRIES state: replay feeds the logged
	// advice back to the tuner instead of re-querying the live store.
	eventKnowledge = "knowledge"
)

// event is one logged session operation. Every source of randomness is
// seeded, so replaying events on a session restored from a snapshot
// reproduces the session that logged them bit for bit: the WAL tail on
// top of a base's state.
type event struct {
	Kind    string   `json:"kind"`
	Outcome *Outcome `json:"outcome,omitempty"`
	// Rollout carries a promote/rollback decision's provenance.
	Rollout *RolloutEvent `json:"rollout,omitempty"`
	// Knowledge carries a fleet-knowledge query's result.
	Knowledge *knowledgeEvent `json:"knowledge,omitempty"`
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
	data, _, err := s.snapshot(true)
	return data, err
}

// snapshot serializes the session, indented or compact (the form of the
// Manager's base files), and returns the snapshot's Next.
func (s *Session) snapshot(indent bool) ([]byte, int, error) {
	s.mu.Lock()
	f := snapshotFile{
		snapshotHeader: snapshotHeader{
			Version:      SnapshotVersion,
			Kind:         snapshotKind,
			Config:       s.cfg,
			Iter:         s.iter,
			Next:         s.nextEventLocked(),
			RolloutPhase: string(s.rolloutLocked().Phase),
		},
		State: s.exportLocked(),
	}
	s.mu.Unlock()
	// Marshal off-lock (encoding must not stall concurrent Suggest/Report):
	// State is a deep copy built under the lock and Config is immutable
	// after NewSession.
	if !indent {
		data, err := json.Marshal(f)
		return data, f.Next, err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, 0, err
	}
	return append(data, '\n'), f.Next, nil
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
	s.iter = iter
	if st.LastWorkload != nil {
		s.lastSnap = st.LastWorkload.snapshot(iter - 1)
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
	return restore(data, nil, nil)
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
// base's state, then replays only the tail. fleet is the Manager's
// knowledge store, so a hydrated session
// resumes contributing to (and querying) the live store once replay
// finishes; replay itself never touches it — it consumes the logged
// advice. The restored session holds the replayed events.
func restore(base []byte, recs [][]byte, fleet *fleetKnowledge) (*Session, error) {
	f, err := parseSnapshot(base)
	if err != nil {
		return nil, err
	}
	tail, err := decodeTail(recs, f.Next)
	if err != nil {
		return nil, err
	}
	if f.State == nil {
		return nil, errors.New("tune: snapshot carries no state")
	}
	f.Config.fleet = fleet
	s, err := NewSession(f.Config)
	if err != nil {
		return nil, err
	}
	if err := s.importState(f.snapshotHeader, f.State); err != nil {
		return nil, err
	}
	if s.know != nil {
		// Feed the logged advice sequence to the adapter: replayed queries
		// pop it in order, so the tuner sees exactly what it saw live.
		s.know.beginReplay(knowledgeQueue(tail))
		defer s.know.endReplay()
	}
	// Rollout decisions and knowledge queries are derived from the
	// replayed reports and suggests — during replay s.events accumulates
	// exactly the regenerated ones, which must line up one-to-one with the
	// logged ones (verified is the cursor into the regenerated sequence).
	verified := 0
	if err := s.replayEvents(tail, &verified); err != nil {
		return nil, err
	}
	if verified != len(s.events) {
		return nil, fmt.Errorf("tune: replay produced %d rollout decisions, snapshot logged %d", len(s.events), verified)
	}
	s.events, s.evBase = tail, f.Next
	return s, nil
}

// replayEvents replays logged events into s, advancing the
// rollout-decision verification cursor.
func (s *Session) replayEvents(events []event, verified *int) error {
	for i, ev := range events {
		switch ev.Kind {
		case eventSuggest:
			s.suggestLocked()
		case eventReport:
			if ev.Outcome == nil {
				return fmt.Errorf("tune: snapshot event %d: report without outcome", i)
			}
			s.reportLocked(*ev.Outcome)
		case rollout.EventPromote, rollout.EventRollback, rollout.EventSwitchover, rollout.EventChainRollback:
			if *verified >= len(s.events) || s.events[*verified].Kind != ev.Kind {
				return fmt.Errorf("tune: snapshot event %d: replay did not reproduce the logged %s decision", i, ev.Kind)
			}
			if got := s.events[*verified].Rollout; got != nil && ev.Rollout != nil && got.Iter != ev.Rollout.Iter {
				return fmt.Errorf("tune: snapshot event %d: replay made the %s decision at iter %d, snapshot logged iter %d",
					i, ev.Kind, got.Iter, ev.Rollout.Iter)
			}
			*verified++
		case eventKnowledge:
			if *verified >= len(s.events) || s.events[*verified].Kind != ev.Kind {
				return fmt.Errorf("tune: snapshot event %d: replay did not reproduce the logged knowledge query", i)
			}
			got, want := s.events[*verified].Knowledge, ev.Knowledge
			if (got == nil || got.Advice == nil) != (want == nil || want.Advice == nil) {
				return fmt.Errorf("tune: snapshot event %d: replayed knowledge query diverged from the logged advice", i)
			}
			*verified++
		default:
			return fmt.Errorf("tune: snapshot event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}
