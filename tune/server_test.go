package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/knowledge"
	"repro/internal/workload"
)

// doJSON issues one request against the test server and decodes the
// JSON response into out (unless nil).
func doJSON(t *testing.T, srv *httptest.Server, method, path string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, srv.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantStatus, msg.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
}

// TestTunedServerSmokeWithRestart is the end-to-end server smoke test:
// create session → suggest → report → snapshot → restart (new Manager
// over the same state dir) → suggest, asserting the post-restart advice
// is identical to what an uninterrupted session produces.
func TestTunedServerSmokeWithRestart(t *testing.T) {
	stateDir := t.TempDir()
	m1, err := NewManagerOpts(stateDir, ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m1))

	cfg := Config{Space: "case5", Seed: 21}
	var info SessionInfo
	doJSON(t, srv, "POST", "/v1/sessions", map[string]any{"id": "db1", "config": cfg}, http.StatusCreated, &info)
	if info.ID != "db1" || info.Space != "case5" {
		t.Fatalf("created %+v", info)
	}
	// Duplicate id → 409; invalid id → 400; the removed backend and
	// stopping fields are unknown → 400.
	doJSON(t, srv, "POST", "/v1/sessions", map[string]any{"id": "db1", "config": cfg}, http.StatusConflict, nil)
	doJSON(t, srv, "POST", "/v1/sessions", map[string]any{"id": "../evil", "config": cfg}, http.StatusBadRequest, nil)
	doJSON(t, srv, "POST", "/v1/sessions", map[string]any{"id": "db2", "config": map[string]any{"backend": "bo"}}, http.StatusBadRequest, nil)
	doJSON(t, srv, "POST", "/v1/sessions", map[string]any{"id": "db2", "config": map[string]any{"stopping": map[string]any{}}}, http.StatusBadRequest, nil)

	// The uninterrupted reference session, driven with the same calls.
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// suggest → report for a few intervals through the HTTP API.
	in := dbsim.New(knobs.CaseStudy5(), 21)
	gen := workload.NewYCSB(21)
	for i := 0; i < 5; i++ {
		var adv Advice
		doJSON(t, srv, "POST", "/v1/sessions/db1/suggest", nil, http.StatusOK, &adv)
		refAdv, err := ref.Suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(adv, refAdv) {
			t.Fatalf("iter %d: server advice %+v != reference %+v", i, adv, refAdv)
		}

		w := gen.At(i)
		res := in.Eval(adv.Config, w, dbsim.EvalOptions{})
		dba := in.DBAResult(w)
		o := Outcome{
			Workload:    WorkloadFromSnapshot(w),
			Stats:       in.OptimizerStats(w),
			Metrics:     res.Metrics,
			Performance: res.Objective(w.OLAP),
			Baseline:    dba.Objective(w.OLAP),
			Failed:      res.Failed,
		}
		var rep struct {
			Iter int `json:"iter"`
		}
		doJSON(t, srv, "POST", "/v1/sessions/db1/report", o, http.StatusOK, &rep)
		if rep.Iter != i+1 {
			t.Fatalf("report advanced to iter %d, want %d", rep.Iter, i+1)
		}
		if err := ref.Report(o); err != nil {
			t.Fatal(err)
		}
	}

	// Snapshot over HTTP parses as the versioned schema.
	resp, err := srv.Client().Get(srv.URL + "/v1/sessions/db1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Version int `json:"version"`
		Iter    int `json:"iter"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Version != SnapshotVersion || snap.Iter != 5 {
		t.Fatalf("snapshot endpoint returned %+v", snap)
	}

	// "Restart": a fresh Manager over the same state dir must reload
	// the session from its checkpoint...
	srv.Close()
	m2, err := NewManagerOpts(stateDir, ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(NewServer(m2))
	defer srv2.Close()

	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	doJSON(t, srv2, "GET", "/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != "db1" || list.Sessions[0].Iter != 5 {
		t.Fatalf("after restart: %+v", list.Sessions)
	}

	// ...and its next advice must match the uninterrupted session's.
	var adv Advice
	doJSON(t, srv2, "POST", "/v1/sessions/db1/suggest", nil, http.StatusOK, &adv)
	refAdv, err := ref.Suggest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(adv, refAdv) {
		t.Fatalf("post-restart advice %+v != uninterrupted %+v", adv, refAdv)
	}

	doJSON(t, srv2, "DELETE", "/v1/sessions/db1", nil, http.StatusOK, nil)
	doJSON(t, srv2, "POST", "/v1/sessions/db1/suggest", nil, http.StatusNotFound, nil)
}

// dbaRes returns the DBA default's OLTP objective for a snapshot.
func dbaRes(in *dbsim.Instance, w workload.Snapshot) float64 {
	r := in.DBAResult(w)
	return r.Objective(false)
}

// TestHealthzAndPG16SessionOverHTTP covers the readiness probe and a
// PostgreSQL session served end-to-end over the HTTP API: create a
// "pg16" session, suggest, report a PG-flavored interval, snapshot, and
// restart the manager over the same state dir.
func TestHealthzAndPG16SessionOverHTTP(t *testing.T) {
	stateDir := t.TempDir()
	m, err := NewManagerOpts(stateDir, ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	var health struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	doJSON(t, srv, "GET", "/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" || health.Sessions != 0 {
		t.Fatalf("healthz = %+v", health)
	}

	cfg := Config{Space: "pg16", Seed: 3}
	var info SessionInfo
	doJSON(t, srv, "POST", "/v1/sessions", map[string]any{"id": "pgdb", "config": cfg}, http.StatusCreated, &info)
	if info.Space != "pg16" {
		t.Fatalf("created %+v", info)
	}

	var adv Advice
	doJSON(t, srv, "POST", "/v1/sessions/pgdb/suggest", nil, http.StatusOK, &adv)
	if _, ok := adv.Config["shared_buffers"]; !ok {
		t.Fatalf("pg16 advice should carry PostgreSQL knobs: %v", adv.Config)
	}
	if _, ok := adv.Config["innodb_buffer_pool_size"]; ok {
		t.Fatal("pg16 advice must not carry InnoDB knobs")
	}

	in := dbsim.New(knobs.Postgres16(), 3)
	w := workload.NewTPCC(3, true).At(0)
	res := in.Eval(adv.Config, w, dbsim.EvalOptions{})
	var rep struct {
		Iter int `json:"iter"`
	}
	doJSON(t, srv, "POST", "/v1/sessions/pgdb/report", Outcome{
		Workload:    WorkloadFromSnapshot(w),
		Stats:       in.OptimizerStats(w),
		Metrics:     res.Metrics,
		Performance: res.Objective(false),
		Baseline:    dbaRes(in, w),
		Failed:      res.Failed,
	}, http.StatusOK, &rep)
	if rep.Iter != 1 {
		t.Fatalf("iter = %d", rep.Iter)
	}

	doJSON(t, srv, "GET", "/healthz", nil, http.StatusOK, &health)
	if health.Sessions != 1 {
		t.Fatalf("healthz after create = %+v", health)
	}
	doJSON(t, srv, "GET", "/v1/sessions/pgdb/snapshot", nil, http.StatusOK, nil)

	// Restart: a fresh manager over the same state dir restores the
	// session and keeps serving it.
	srv.Close()
	m2, err := NewManagerOpts(stateDir, ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(NewServer(m2))
	defer srv2.Close()
	doJSON(t, srv2, "GET", "/healthz", nil, http.StatusOK, &health)
	if health.Sessions != 1 {
		t.Fatalf("healthz after restart = %+v", health)
	}
	doJSON(t, srv2, "GET", "/v1/sessions/pgdb", nil, http.StatusOK, &info)
	if info.Space != "pg16" || info.Iter != 1 {
		t.Fatalf("restored %+v", info)
	}
	doJSON(t, srv2, "POST", "/v1/sessions/pgdb/suggest", nil, http.StatusOK, &adv)
	if _, ok := adv.Config["shared_buffers"]; !ok {
		t.Fatal("restored pg16 session should keep suggesting PostgreSQL knobs")
	}
}

// TestDeleteStatusOverHTTP: DELETE maps Manager.Delete's errors like
// every other handler — a missing session is the client's 404, a
// failure removing the session's files is the server's 500.
func TestDeleteStatusOverHTTP(t *testing.T) {
	stateDir := t.TempDir()
	m1, err := NewManagerOpts(stateDir, ManagerOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Create("db", Config{Space: "case5", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh manager holds the session evicted, with no handle on its
	// files. Tests run as root, where permission bits stop nothing: make
	// the removal fail by putting a non-empty directory where the log was.
	m2, err := NewManagerOpts(stateDir, ManagerOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	walPath := filepath.Join(stateDir, "db.wal")
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(walPath, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m2))
	defer srv.Close()
	doJSON(t, srv, "DELETE", "/v1/sessions/nope", nil, http.StatusNotFound, nil)
	doJSON(t, srv, "DELETE", "/v1/sessions/db", nil, http.StatusInternalServerError, nil)
}

// TestReportBodyRefusals: a report the decoder must not accept leaves
// the session where it was. An oversized body is cut off at
// maxBodyBytes, and the retired "shadow" spelling of the staged
// measurement is an unknown field the error names — as is the retired
// FullRefitGP tuner option on create, which used to put a served session
// on the O(n³) refit path.
func TestReportBodyRefusals(t *testing.T) {
	m, err := NewManagerOpts("", ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	doJSON(t, srv, "POST", "/v1/sessions", map[string]any{"id": "db", "config": Config{Space: "case5"}}, http.StatusCreated, nil)

	huge := goldenOutcome(0)
	huge.Workload.Statements[0].SQL = "SELECT " + strings.Repeat("x", maxBodyBytes)
	doJSON(t, srv, "POST", "/v1/sessions/db/report", huge, http.StatusBadRequest, nil)

	body := struct {
		Outcome
		Shadow ReplicaPerf `json:"shadow"`
	}{goldenOutcome(0), ReplicaPerf{Performance: 130}}
	var refusal struct {
		Error string `json:"error"`
	}
	doJSON(t, srv, "POST", "/v1/sessions/db/report", body, http.StatusBadRequest, &refusal)
	if !strings.Contains(refusal.Error, `unknown field "shadow"`) {
		t.Fatalf("refusal %q does not name the unknown field", refusal.Error)
	}

	// A body is one JSON value: a second value or garbage after an
	// otherwise accepted one is a 400 too.
	post := func(path, body string) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %.40q…: status %d, want 400", path, body, resp.StatusCode)
		}
	}
	good, err := json.Marshal(body.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	post("/v1/sessions/db/report", string(good)+string(good))
	post("/v1/sessions/db/report", string(good)+" garbage")
	post("/v1/sessions", `{"id": "twice", "config": {"space": "case5"}}{"id": "other"}`)
	post("/v1/sessions", `{"id": "junk", "config": {"space": "case5"}} garbage`)
	doJSON(t, srv, "GET", "/v1/sessions/twice", nil, http.StatusNotFound, nil)
	doJSON(t, srv, "GET", "/v1/sessions/junk", nil, http.StatusNotFound, nil)

	var info SessionInfo
	doJSON(t, srv, "GET", "/v1/sessions/db", nil, http.StatusOK, &info)
	if info.Iter != 0 {
		t.Fatalf("refused reports advanced the session to iter %d", info.Iter)
	}
	// The same outcome without the stray field is accepted, with the
	// trailing newline doJSON's encoder ends every body with.
	doJSON(t, srv, "POST", "/v1/sessions/db/report", body.Outcome, http.StatusOK, nil)

	create := json.RawMessage(`{"id": "slow", "config": {"space": "case5", "options": {"FullRefitGP": true}}}`)
	doJSON(t, srv, "POST", "/v1/sessions", create, http.StatusBadRequest, &refusal)
	if !strings.Contains(refusal.Error, `unknown field "FullRefitGP"`) {
		t.Fatalf("refusal %q does not name the unknown field", refusal.Error)
	}
	doJSON(t, srv, "GET", "/v1/sessions/slow", nil, http.StatusNotFound, nil)
}

// TestCreateOptionsBodies: an options object is an overlay on the
// defaults that names only tunables, so a partial body is a session with
// the paper's settings plus its edits. An ablation switch, a rollout
// policy nested in options, a retired config or rollout field, an
// out-of-range tunable and a negative promote margin are each a 400.
func TestCreateOptionsBodies(t *testing.T) {
	m, err := NewManagerOpts("", ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	for i, tc := range createOptionsCases() {
		id := fmt.Sprintf("s%d", i)
		body := tc.body(id)
		if tc.status != http.StatusCreated {
			var refusal struct {
				Error string `json:"error"`
			}
			doJSON(t, srv, "POST", "/v1/sessions", body, tc.status, &refusal)
			if !strings.Contains(refusal.Error, tc.refusal) {
				t.Fatalf("%s: refusal %q does not name %q", tc.name, refusal.Error, tc.refusal)
			}
			doJSON(t, srv, "GET", "/v1/sessions/"+id, nil, http.StatusNotFound, nil)
			continue
		}
		doJSON(t, srv, "POST", "/v1/sessions", body, tc.status, nil)
		var got TunerOptions
		if err := m.withSession(id, func(e *managedSession) error {
			got = e.s.Config().options()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := DefaultTunerOptions()
		if tc.edit != nil {
			tc.edit(&want)
		}
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
		for f := 0; f < gv.NumField(); f++ {
			if g, w := gv.Field(f).Interface(), wv.Field(f).Interface(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: resolved %s = %v, want %v", tc.name, gv.Type().Field(f).Name, g, w)
			}
		}
		// The accepted session serves an interval end to end.
		doJSON(t, srv, "POST", "/v1/sessions/"+id+"/suggest", nil, http.StatusOK, nil)
		doJSON(t, srv, "POST", "/v1/sessions/"+id+"/report", goldenOutcome(0), http.StatusOK, nil)
	}
}

// createOptionsCase is one create body of TestCreateOptionsBodies and
// the status create must answer with: an accepted body resolves to the
// defaults with edit applied, a refused one's error names refusal.
type createOptionsCase struct {
	name    string
	config  map[string]any // the body's config besides its space
	edit    func(*TunerOptions)
	status  int
	refusal string
}

func createOptionsCases() []createOptionsCase {
	options := func(o map[string]any) map[string]any { return map[string]any{"options": o} }
	return []createOptionsCase{
		{name: "empty options", config: options(map[string]any{}), status: http.StatusCreated},
		{name: "one tunable", config: options(map[string]any{"beta": 3}),
			edit: func(o *TunerOptions) { o.Beta = 3 }, status: http.StatusCreated},
		{name: "wider margin", config: options(map[string]any{"safety_margin": 0.05}),
			edit: func(o *TunerOptions) { o.SafetyMargin = 0.05 }, status: http.StatusCreated},
		{name: "every tunable", config: map[string]any{"options": DefaultTunerOptions()}, status: http.StatusCreated},
		{name: "promote margin", config: map[string]any{"rollout": map[string]any{"promote_margin": 0.02}},
			edit: func(o *TunerOptions) { o.Rollout = &RolloutConfig{PromoteMargin: 0.02} }, status: http.StatusCreated},
		{name: "ablation switch", config: options(map[string]any{"UseSafety": false}),
			status: http.StatusBadRequest, refusal: `unknown field "UseSafety"`},
		{name: "rollout inside options", config: options(map[string]any{"Rollout": map[string]any{"Mode": "canary"}}),
			status: http.StatusBadRequest, refusal: `unknown field "Rollout"`},
		{name: "retired option", config: options(map[string]any{"FullRefitGP": true}),
			status: http.StatusBadRequest, refusal: `unknown field "FullRefitGP"`},
		{name: "zero recluster_every", config: options(map[string]any{"recluster_every": 0}),
			status: http.StatusBadRequest, refusal: "recluster_every"},
		{name: "negative beta", config: options(map[string]any{"beta": -1}),
			status: http.StatusBadRequest, refusal: "beta > 0"},
		{name: "candidates over the bound", config: options(map[string]any{"candidates": 1 << 40}),
			status: http.StatusBadRequest, refusal: "candidates in"},
		{name: "unbounded repository", config: options(map[string]any{"repo_cap": 0}),
			status: http.StatusBadRequest, refusal: "repo_cap in"},
		{name: "repository over the bound", config: options(map[string]any{"repo_cap": 4097}),
			status: http.StatusBadRequest, refusal: "repo_cap in"},
		{name: "huge repository", config: options(map[string]any{"repo_cap": 1 << 40}),
			status: http.StatusBadRequest, refusal: "repo_cap in"},
		{name: "small repository", config: options(map[string]any{"repo_cap": 64}),
			edit: func(o *TunerOptions) { o.RepoCap = 64 }, status: http.StatusCreated},
		{name: "cluster models over the bound", config: options(map[string]any{"cluster_cap": 257}),
			status: http.StatusBadRequest, refusal: "cluster_cap in"},
		{name: "huge cluster models", config: options(map[string]any{"cluster_cap": 1 << 40}),
			status: http.StatusBadRequest, refusal: "cluster_cap in"},
		{name: "cluster models at the bound", config: options(map[string]any{"cluster_cap": 256}),
			edit: func(o *TunerOptions) { o.ClusterCap = 256 }, status: http.StatusCreated},
		{name: "disable_safety", config: map[string]any{"disable_safety": true},
			status: http.StatusBadRequest, refusal: `unknown field "disable_safety"`},
		{name: "negative promote margin", config: map[string]any{"rollout": map[string]any{"promote_margin": -0.5}},
			status: http.StatusBadRequest, refusal: "promote_margin"},
		{name: "regression_threshold", config: map[string]any{"rollout": map[string]any{"regression_threshold": 0.1}},
			status: http.StatusBadRequest, refusal: `unknown field "regression_threshold"`},
		{name: "max_chain", config: map[string]any{"rollout": map[string]any{"max_chain": 2}},
			status: http.StatusBadRequest, refusal: `unknown field "max_chain"`},
		{name: "switchover_intervals", config: map[string]any{"rollout": map[string]any{"switchover_intervals": 2}},
			status: http.StatusBadRequest, refusal: `unknown field "switchover_intervals"`},
	}
}

// body is the create request for session id.
func (tc createOptionsCase) body(id string) map[string]any {
	config := map[string]any{"space": "case5"}
	maps.Copy(config, tc.config)
	return map[string]any{"id": id, "config": config}
}

// TestManagerDeleteVsCheckpointRace hammers Delete against concurrent
// Suggest checkpointing on the same id: once Delete returns and the
// suggesters drain, no checkpoint file may remain (a racing checkpoint
// must not resurrect a deleted session's state).
func TestManagerDeleteVsCheckpointRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		stateDir := t.TempDir()
		m, err := NewManagerOpts(stateDir, ManagerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Create("db", Config{Space: "case5", Seed: int64(round)}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if _, err := m.Suggest(context.Background(), "db"); err != nil {
						return // deleted underneath us: expected
					}
				}
			}()
		}
		if err := m.Delete("db"); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for _, name := range []string{"db.base.json", "db.wal"} {
			if _, err := os.Stat(filepath.Join(stateDir, name)); !os.IsNotExist(err) {
				t.Fatalf("round %d: %s resurrected after delete (stat err: %v)", round, name, err)
			}
		}
	}
}

// TestManagerConcurrentSessions exercises the one-mutex registry: many
// sessions created and driven concurrently through one manager, each
// operation under its own session's gate.
func TestManagerConcurrentSessions(t *testing.T) {
	m, err := NewManagerOpts("", ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("db-%d", g)
			if _, err := m.Create(id, Config{Space: "case5", Seed: int64(g)}); err != nil {
				t.Error(err)
				return
			}
			in := dbsim.New(knobs.CaseStudy5(), int64(g))
			gen := workload.NewYCSB(int64(g))
			for i := 0; i < 5; i++ {
				adv, err := m.Suggest(context.Background(), id)
				if err != nil {
					t.Error(err)
					return
				}
				w := gen.At(i)
				res := in.Eval(adv.Config, w, dbsim.EvalOptions{})
				dba := in.DBAResult(w)
				if _, err := m.Report(id, Outcome{
					Workload:    WorkloadFromSnapshot(w),
					Stats:       in.OptimizerStats(w),
					Metrics:     res.Metrics,
					Performance: res.Objective(w.OLAP),
					Baseline:    dba.Objective(w.OLAP),
					Failed:      res.Failed,
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(m.List()); got != sessions {
		t.Fatalf("manager lists %d sessions, want %d", got, sessions)
	}
	for _, info := range m.List() {
		if info.Iter != 5 {
			t.Fatalf("session %s at iter %d", info.ID, info.Iter)
		}
	}
}

// TestKnowledgeStatsOverHTTP: GET /v1/knowledge/stats is a 404 without
// a fleet store and otherwise serves the store's counters as
// ManagerStats.Knowledge reports them.
func TestKnowledgeStatsOverHTTP(t *testing.T) {
	off, err := NewManagerOpts("", ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(off))
	doJSON(t, srv, "GET", "/v1/knowledge/stats", nil, http.StatusNotFound, nil)
	srv.Close()

	on, err := NewManagerOpts("", ManagerOptions{Knowledge: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := on.Create("db", Config{Space: "case5", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := on.Suggest(context.Background(), "db"); err != nil {
		t.Fatal(err)
	}
	srv = httptest.NewServer(NewServer(on))
	defer srv.Close()
	var got knowledge.Stats
	doJSON(t, srv, "GET", "/v1/knowledge/stats", nil, http.StatusOK, &got)
	if want := on.Stats().Knowledge; got != *want || got.Queries == 0 {
		t.Fatalf("served %+v, want %+v with the suggest's query counted", got, *want)
	}
}
