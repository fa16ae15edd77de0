package tune

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/rollout"
)

// SnapshotVersion is the version of the session snapshot JSON schema,
// and the only one Restore and the Manager accept. The schema is
// append-only within a version: fields may be added, never renamed,
// repurposed or removed without a bump. Version 6 is the role-keyed
// format: a header (config, iter, rollout_phase) emitted before the
// event log so the Manager's boot scan can summarize a session from
// the head of its base snapshot, a log of suggest, report, knowledge
// and rollout-decision events whose outcomes carry the staged
// replica's measurement only as Measurements[RoleStaged], and the
// derived state summary.
const SnapshotVersion = 6

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

// event is one logged session operation. The tuner's evolution is a
// deterministic function of its Config and the ordered event log, so
// the log IS the durable state: Restore replays it through a freshly
// built session and arrives at a bitwise-identical tuner (GP Cholesky
// factors, RNG stream, cluster assignments, rule-relaxation counters,
// rollout state and all) — a fidelity no field-by-field serialization
// of float state could guarantee as cheaply.
type event struct {
	Kind    string   `json:"kind"`
	Outcome *Outcome `json:"outcome,omitempty"`
	// Rollout carries a promote/rollback decision's provenance.
	Rollout *RolloutEvent `json:"rollout,omitempty"`
	// Knowledge carries a fleet-knowledge query's result.
	Knowledge *knowledgeEvent `json:"knowledge,omitempty"`
}

// sessionState is the derived, human-inspectable state summary embedded
// in a snapshot: the per-cluster GP observations, the cluster
// assignment of every historical observation, each model's safe-set
// memory, and the featurizer's vocabulary. Restore uses it as an
// integrity check on the replayed session.
type sessionState struct {
	// Observations is the total number of repository observations.
	Observations int `json:"observations"`
	// ClusterLabels is the cluster assignment per observation.
	ClusterLabels []int `json:"cluster_labels,omitempty"`
	// Models holds each cluster model's GP observations, incumbent and
	// evaluated safe-set keys.
	Models []core.ModelSnapshot `json:"models,omitempty"`
	// Vocabulary is the featurizer's admitted token list in id order.
	Vocabulary []string `json:"vocabulary,omitempty"`
	// Rollout summarizes the canary rollout controller (nil when the
	// session applies recommendations directly).
	Rollout *RolloutStatus `json:"rollout,omitempty"`
}

// snapshotHeader is the prefix of a snapshot document: everything the
// Manager's boot scan needs, marshaled BEFORE the event log, so peeking
// a base snapshot's header never reads past the head of the file.
type snapshotHeader struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Config  Config `json:"config"`
	Iter    int    `json:"iter"`
	// RolloutPhase duplicates State.Rollout.Phase in the header.
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
// header, then the event log, then the derived state summary.
type snapshotFile struct {
	snapshotHeader
	Events []event       `json:"events"`
	State  *sessionState `json:"state,omitempty"`
}

// Snapshot serializes the session as versioned JSON: its configuration,
// the full event log, and a derived state summary (GP observations,
// cluster assignments, safe sets, featurizer vocabulary). The bytes are
// self-contained — Restore rebuilds an equivalent session from them
// alone.
func (s *Session) Snapshot() ([]byte, error) {
	s.mu.Lock()
	f := snapshotFile{
		snapshotHeader: snapshotHeader{
			Version:      SnapshotVersion,
			Kind:         snapshotKind,
			Config:       s.cfg,
			Iter:         s.iter,
			RolloutPhase: string(s.rolloutLocked().Phase),
		},
		Events: s.events,
		State:  s.stateLocked(),
	}
	s.mu.Unlock()
	// Marshal off-lock (the log can be large, and encoding it must not
	// stall concurrent Suggest/Report): every reference f carries is
	// safe to read unlocked — State and RolloutPhase are deep copies
	// built under the lock, Config is immutable after NewSession, and
	// Events is a fixed-length prefix of an append-only log whose
	// entries are never mutated after being appended.
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// stateLocked exports the derived state summary.
func (s *Session) stateLocked() *sessionState {
	st := &sessionState{Vocabulary: s.feat.Vocabulary()}
	if ct, ok := s.tuner.(coreTuner); ok {
		t := ct.Core()
		st.Observations = t.Repo.Len()
		st.ClusterLabels = t.Labels()
		for i := 0; i < t.NumModels(); i++ {
			st.Models = append(st.Models, t.ModelSnapshotAt(i))
		}
		st.Rollout = t.RolloutStatus()
	}
	return st
}

// Restore rebuilds a session from Snapshot bytes by replaying its event
// log through a freshly constructed session with the same Config. Every
// source of randomness is seeded, so the restored session's subsequent
// recommendations are bitwise-identical to those an uninterrupted
// session would have produced. The embedded state summary is verified
// against the replayed tuner.
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
// that base was compacted (none for a bare Restore). The base's
// embedded state summary is verified at the base boundary, then the
// tail replays through the same verification loop. fleet is the
// Manager's knowledge store, so a hydrated session resumes contributing
// to (and querying) the live store once replay finishes; replay itself
// never touches it — it consumes the logged advice. It returns the
// restored session and the number of events the base contributed (the
// tail's starting index in the combined log).
func restore(base []byte, recs [][]byte, fleet *fleetKnowledge) (*Session, int, error) {
	f, err := parseSnapshot(base)
	if err != nil {
		return nil, 0, err
	}
	tail, err := decodeTail(recs, len(f.Events))
	if err != nil {
		return nil, 0, err
	}
	f.Config.fleet = fleet
	s, err := NewSession(f.Config)
	if err != nil {
		return nil, 0, err
	}
	if s.know != nil {
		// Feed the logged advice sequence to the adapter: replayed queries
		// pop it in order, so the tuner sees exactly what it saw live.
		s.know.beginReplay(knowledgeQueue(f.Events, tail))
		defer s.know.endReplay()
	}
	// Rollout decisions are derived from the replayed reports — during
	// replay s.events accumulates exactly the regenerated promote/
	// rollback events, which must line up one-to-one with the logged
	// ones (verified is the cursor into the regenerated sequence).
	verified := 0
	if err := s.replayEvents(f.Events, &verified); err != nil {
		return nil, 0, err
	}
	// The base's iter and state summary describe the session at the
	// base boundary — check them before replaying the tail on top.
	if s.iter != f.Iter {
		return nil, 0, fmt.Errorf("tune: replay reached iter %d, snapshot recorded %d", s.iter, f.Iter)
	}
	if err := s.verifyState(f.State); err != nil {
		return nil, 0, err
	}
	if err := s.replayEvents(tail, &verified); err != nil {
		return nil, 0, err
	}
	if verified != len(s.events) {
		return nil, 0, fmt.Errorf("tune: replay produced %d rollout decisions, snapshot logged %d", len(s.events), verified)
	}
	s.events = append(append([]event(nil), f.Events...), tail...)
	return s, len(f.Events), nil
}

// replayEvents replays one stretch of logged events into s, advancing
// the rollout-decision verification cursor.
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

// verifyState cross-checks the snapshot's derived state summary against
// the replayed session.
func (s *Session) verifyState(want *sessionState) error {
	if want == nil {
		return nil
	}
	got := s.stateLocked()
	if want.Observations != got.Observations {
		return fmt.Errorf("tune: replayed repository holds %d observations, snapshot recorded %d", got.Observations, want.Observations)
	}
	if len(want.Models) != 0 && len(want.Models) != len(got.Models) {
		return fmt.Errorf("tune: replay produced %d cluster models, snapshot recorded %d", len(got.Models), len(want.Models))
	}
	if len(want.Vocabulary) != 0 && len(want.Vocabulary) != len(got.Vocabulary) {
		return fmt.Errorf("tune: replayed vocabulary holds %d tokens, snapshot recorded %d", len(got.Vocabulary), len(want.Vocabulary))
	}
	if want.Rollout != nil {
		gr := got.Rollout
		if gr == nil || gr.Phase != want.Rollout.Phase ||
			gr.Promotions != want.Rollout.Promotions || gr.Rollbacks != want.Rollout.Rollbacks {
			return fmt.Errorf("tune: replayed rollout state %+v does not match snapshot %+v", gr, want.Rollout)
		}
	}
	return nil
}
