package tune

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// NewServer wraps a Manager in an HTTP/JSON API (the cmd/tuned server):
//
//	POST   /v1/sessions                {"id": "...", "config": {...}}
//	GET    /v1/sessions                list sessions
//	GET    /v1/sessions/{id}           session info
//	DELETE /v1/sessions/{id}           drop a session
//	POST   /v1/sessions/{id}/suggest   → Advice
//	POST   /v1/sessions/{id}/report    ← Outcome, → {"iter": n}
//	GET    /v1/sessions/{id}/rollout   → rollout phase, blue/green replicas, last decision
//	GET    /v1/sessions/{id}/snapshot  → versioned snapshot JSON
//	GET    /v1/knowledge/stats         fleet knowledge base counters
//	GET    /v1/knowledge/export        fleet knowledge snapshot JSON
//	POST   /v1/knowledge/import        ← knowledge snapshot, → {"merged": n}
//	GET    /healthz                    readiness probe
//
// Errors are returned as {"error": "..."} with a 4xx/5xx status.
func NewServer(m *Manager) http.Handler {
	mux := http.NewServeMux()

	// Readiness probe: by the time the server is listening, the manager
	// has registered every durable session (hydration is lazy), so a 200
	// means sessions are servable. CI and orchestration poll this
	// instead of sleeping; loadgen asserts on the residency counters.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := m.Stats()
		resp := map[string]any{
			"status":           "ok",
			"sessions":         st.Sessions,
			"hydrated":         st.Hydrated,
			"evicted":          st.Evicted,
			"checkpoint_bytes": st.CheckpointBytes,
			"fsyncs":           st.Fsyncs,
			"group_commits":    st.GroupCommits,
			"degraded_commits": st.DegradedCommits,
		}
		if st.Knowledge != nil {
			resp["knowledge_entries"] = st.Knowledge.Entries
			resp["knowledge_contributions"] = st.Knowledge.Contributions
			resp["knowledge_warm_starts"] = st.Knowledge.WarmStarts
			resp["knowledge_bytes"] = st.Knowledge.Bytes
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"sessions": m.List()})
	})

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID     string `json:"id"`
			Config Config `json:"config"`
		}
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		info, err := m.Create(req.ID, req.Config)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := m.Info(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Delete(r.PathValue("id")); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"deleted": true})
	})

	mux.HandleFunc("POST /v1/sessions/{id}/suggest", func(w http.ResponseWriter, r *http.Request) {
		adv, err := m.Suggest(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, adv)
	})

	mux.HandleFunc("POST /v1/sessions/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		var o Outcome
		if err := decodeBody(w, r, &o); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		iter, err := m.Report(r.PathValue("id"), o)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"iter": iter})
	})

	mux.HandleFunc("GET /v1/sessions/{id}/rollout", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Rollout(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		data, err := m.Snapshot(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})

	mux.HandleFunc("GET /v1/knowledge/stats", func(w http.ResponseWriter, r *http.Request) {
		st := m.Stats().Knowledge
		if st == nil {
			writeError(w, http.StatusNotFound, errors.New("fleet knowledge base disabled"))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/knowledge/export", func(w http.ResponseWriter, r *http.Request) {
		data, err := m.KnowledgeExport()
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})

	mux.HandleFunc("POST /v1/knowledge/import", func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxImportBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		n, err := m.KnowledgeImport(data)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"merged": n})
	})

	return mux
}

// maxImportBytes bounds a knowledge-import body; the store's caps keep
// any honest export far below this.
const maxImportBytes = 64 << 20

// maxBodyBytes bounds a create or report body. An honest report is a
// few dozen sampled statements plus counters — kilobytes.
const maxBodyBytes = 4 << 20

// decodeBody parses a JSON request body of at most maxBodyBytes that
// holds exactly one value, rejecting unknown fields so typos in knob or
// option names fail loudly, and anything after the value but white
// space.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("parsing request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("parsing request body: data after the JSON value")
	}
	return nil
}

// statusFor maps manager errors onto HTTP statuses via the sentinel
// errors, so error-message wording never changes API semantics.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrDurability):
		// The session advanced but the checkpoint did not stick: clients
		// should back off and NOT resubmit the same interval.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func sessionInfo(id string, s *Session) SessionInfo {
	cfg := s.Config()
	info := SessionInfo{ID: id, Space: cfg.Space, Iter: s.Iter()}
	return info.withRollout(cfg.rolloutMode(), s.RolloutPhase())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// durabilityRetryAfter is the backoff hint on 503 responses. A
// durability failure needs operator attention (disk full, I/O errors) —
// a few seconds keeps honest clients from hammering a degraded store
// while staying short enough that recovery is noticed quickly.
const durabilityRetryAfter = "5"

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", durabilityRetryAfter)
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
