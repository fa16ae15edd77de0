package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// FuzzParseSnapshot drives the snapshot version-envelope parser and
// the full Restore — state import and replay — over arbitrary bytes.
// Nearly every input is rejected with an error — that is the correct
// outcome; the invariant under fuzz is that no input panics or hangs.
// Seeds are the committed current-version golden, damaged copies of it
// that each reach one of Restore's rejections (the retired version, a
// torn file, and each broken state block of damagedGoldens), and a
// freshly generated snapshot, so the corpus tracks the live schema.
func FuzzParseSnapshot(f *testing.F) {
	golden := goldenAtVersion(f, SnapshotVersion)
	f.Add(golden)
	f.Add(goldenAtVersion(f, 7))
	f.Add(golden[:len(golden)/2])
	f.Add(bytes.Replace(golden, []byte(`"iter": 3`), []byte(`"iter": 4`), 1))
	s, err := NewSession(Config{Space: "case5", Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Suggest(context.Background()); err != nil {
		f.Fatal(err)
	}
	err = s.Report(Outcome{
		Workload: Workload{
			Statements: []Statement{{SQL: "SELECT c_balance FROM customer WHERE c_id = 42", Weight: 1}},
			Unlimited:  true,
		},
		Stats:       OptimizerStats{RowsExamined: 120, FilterPct: 30, IndexUsedFrac: 1},
		Metrics:     Metrics{BufferPoolHitRate: 0.96, QPS: 21500},
		Performance: 21500,
		Baseline:    20000,
	})
	if err != nil {
		f.Fatal(err)
	}
	fresh, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fresh)
	f.Add([]byte(`{"kind":"tune.Session","version":99}`))
	f.Add([]byte(`{"kind":"something.Else","version":8}`))
	f.Add([]byte(`{"kind":"tune.Session","version":8,"config":{"space":"nope"}}`))
	f.Add([]byte("{"))
	damaged := damagedGoldens(f)
	for _, name := range slices.Sorted(maps.Keys(damaged)) {
		f.Add(damaged[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = parseSnapshot(data)
		_, _ = Restore(data)
	})
}

// FuzzCreateSession posts arbitrary bodies to the create route of a
// server over an in-memory Manager. The invariant: create answers 201,
// 400 or 409 — never a 5xx, never a panic — and a created session
// answers its first suggest with 200. Seeds are valid mysql and pg16
// bodies, every body of TestCreateOptionsBodies, the retired backend and
// stopping fields, an unknown space and knob, and truncated JSON.
func FuzzCreateSession(f *testing.F) {
	f.Add([]byte(`{"id":"db","config":{}}`))
	f.Add([]byte(`{"id":"pg","config":{"space":"pg16","seed":2}}`))
	for _, tc := range createOptionsCases() {
		data, err := json.Marshal(tc.body("opts"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"id":"x","config":{"backend":"bo"}}`))
	f.Add([]byte(`{"id":"x","config":{"stopping":{}}}`))
	f.Add([]byte(`{"id":"x","config":{"space":"nope"}}`))
	f.Add([]byte(`{"id":"x","config":{"initial":{"not_a_knob":1}}}`))
	f.Add([]byte(`{"id":"x","config":{"space":"case5"`))

	m, err := NewManagerOpts("", ManagerOptions{})
	if err != nil {
		f.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	post := func(t *testing.T, path string, body []byte) *http.Response {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		resp := post(t, "/v1/sessions", body)
		var info SessionInfo
		_ = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusBadRequest, http.StatusConflict:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("create answered %d for %q", resp.StatusCode, body)
		}
		defer m.Delete(info.ID)
		resp = post(t, "/v1/sessions/"+info.ID+"/suggest", nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("suggest on a created session answered %d for %q", resp.StatusCode, body)
		}
	})
}
