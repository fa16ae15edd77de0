package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/featurize"
)

// openManager is NewManagerOpts with session tails compacting at
// compactMin events instead of DefaultCompactMin.
func openManager(dir string, opts ManagerOptions, compactMin int) (*Manager, error) {
	m, err := NewManagerOpts(dir, opts)
	if err != nil {
		return nil, err
	}
	m.compactMin = compactMin
	return m, nil
}

// managedStep drives one suggest+report interval on session id through
// m and on an uninterrupted reference session, asserting the manager's
// advice is bitwise identical to the reference's.
func managedStep(t *testing.T, m *Manager, id string, ref *Session, i int) {
	t.Helper()
	adv, err := m.Suggest(context.Background(), id)
	if err != nil {
		t.Fatalf("%s iter %d: Suggest: %v", id, i, err)
	}
	want, err := ref.Suggest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(adv, want) {
		t.Fatalf("%s iter %d: managed advice diverged from reference\nmanaged:   %+v\nreference: %+v", id, i, adv, want)
	}
	o := goldenOutcome(i)
	if _, err := m.Report(id, o); err != nil {
		t.Fatalf("%s iter %d: Report: %v", id, i, err)
	}
	if err := ref.Report(o); err != nil {
		t.Fatal(err)
	}
}

// TestManagerLazyHydration: a restarted manager registers every durable
// session without replaying any history — sessions hydrate on first
// touch, and the boot-time List is served from snapshot headers and WAL
// tails alone.
func TestManagerLazyHydration(t *testing.T) {
	stateDir := t.TempDir()
	m, err := NewManagerOpts(stateDir, ManagerOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	const iters = 4
	for g := 0; g < n; g++ {
		id := fmt.Sprintf("db-%d", g)
		if _, err := m.Create(id, Config{Space: "case5", Seed: int64(g)}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < iters; i++ {
			if _, err := m.Suggest(context.Background(), id); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Report(id, goldenOutcome(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManagerOpts(stateDir, ManagerOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	st := m2.Stats()
	if st.Sessions != n || st.Hydrated != 0 || st.Evicted != n || st.Hydrations != 0 {
		t.Fatalf("after restart, before any touch: %+v", st)
	}
	// The boot scan's summaries must match what a hydrated session would
	// report, iteration count included (it lives in the WAL tail, not
	// the stale base header).
	list := m2.List()
	if len(list) != n {
		t.Fatalf("listed %d sessions, want %d", len(list), n)
	}
	for _, info := range list {
		if info.Iter != iters || info.Space != "case5" || info.Rollout == nil || info.Rollout.Phase != RolloutDirect {
			t.Fatalf("boot summary %+v", info)
		}
	}
	if st := m2.Stats(); st.Hydrated != 0 {
		t.Fatalf("List hydrated sessions: %+v", st)
	}

	// First touch hydrates exactly the touched session, and its next
	// advice matches an uninterrupted reference.
	ref, err := NewSession(Config{Space: "case5", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		if _, err := ref.Suggest(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := ref.Report(goldenOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	managedStep(t, m2, "db-3", ref, iters)
	st = m2.Stats()
	if st.Hydrated != 1 || st.Hydrations != 1 {
		t.Fatalf("after one touch: %+v", st)
	}
}

// TestManagerLRUEviction holds more sessions than MaxResident and
// drives them round-robin: residency stays bounded, evicted sessions
// rehydrate transparently, and every session's advice stays bitwise
// identical to its uninterrupted reference throughout the churn.
func TestManagerLRUEviction(t *testing.T) {
	stateDir := t.TempDir()
	m, err := openManager(stateDir, ManagerOptions{MaxResident: 2, NoFsync: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	refs := make([]*Session, n)
	for g := 0; g < n; g++ {
		cfg := Config{Space: "case5", Seed: int64(100 + g)}
		if _, err := m.Create(fmt.Sprintf("db-%d", g), cfg); err != nil {
			t.Fatal(err)
		}
		if refs[g], err = NewSession(cfg); err != nil {
			t.Fatal(err)
		}
	}
	const iters = 6
	for i := 0; i < iters; i++ {
		for g := 0; g < n; g++ {
			managedStep(t, m, fmt.Sprintf("db-%d", g), refs[g], i)
		}
	}
	st := m.Stats()
	if st.Hydrated > 2 {
		t.Fatalf("residency bound violated: %+v", st)
	}
	if st.Sessions != n || st.Evictions == 0 || st.Hydrations <= int64(n) {
		t.Fatalf("expected eviction/rehydration churn across %d sessions: %+v", n, st)
	}
	if st.Compactions == 0 {
		t.Fatalf("expected tail compactions at compactMin=4: %+v", st)
	}
}

// TestManagerCheckpointBytes pins the perf claim at unit scale: for the
// same session history, WAL durability writes far fewer bytes than
// rewriting the whole snapshot on every operation would (the reference
// is summed here, from the session's own snapshot size after each op),
// and the state dir holds exactly a base+log pair beside the shared
// group-commit journal.
func TestManagerCheckpointBytes(t *testing.T) {
	dir := t.TempDir()
	m, err := openManager(dir, ManagerOptions{NoFsync: true}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var fullBytes int64
	addSnapshot := func() {
		data, err := m.Snapshot("db")
		if err != nil {
			t.Fatal(err)
		}
		fullBytes += int64(len(data))
	}
	if _, err := m.Create("db", Config{Space: "case5", Seed: 9}); err != nil {
		t.Fatal(err)
	}
	addSnapshot()
	for i := 0; i < 40; i++ {
		if _, err := m.Suggest(context.Background(), "db"); err != nil {
			t.Fatal(err)
		}
		addSnapshot()
		if _, err := m.Report("db", goldenOutcome(i)); err != nil {
			t.Fatal(err)
		}
		addSnapshot()
	}
	walBytes := m.Stats().CheckpointBytes
	if walBytes <= 0 {
		t.Fatalf("checkpoint bytes not counted: %d", walBytes)
	}
	if ratio := float64(fullBytes) / float64(walBytes); ratio < 3 {
		t.Fatalf("whole-snapshot-per-op would write only %.1fx the bytes of the WAL (full %d, wal %d); expected a large reduction", ratio, fullBytes, walBytes)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"db.base.json", "db.wal", "fleet.journal"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("state dir holds %v, want %v", names, want)
	}

	// A fleet contribution counts its whole frame, as a session record
	// does: the payload plus the WAL's 8 B header.
	k, err := NewManagerOpts(t.TempDir(), ManagerOptions{NoFsync: true, Knowledge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	before, size := k.Stats().CheckpointBytes, k.know.log.Size()
	k.know.Contribute(fleetContribution(1))
	payload, err := json.Marshal(knowRecord{Seq: 1, C: fleetContribution(1)})
	if err != nil {
		t.Fatal(err)
	}
	counted, grew := k.Stats().CheckpointBytes-before, k.know.log.Size()-size
	if counted != grew || grew != int64(len(payload))+8 {
		t.Fatalf("a contribution counted %d checkpoint bytes; its tail grew %d, its payload is %d", counted, grew, len(payload))
	}
}

// TestManagerIgnoresStrayJSON: the state dir has one layout. A stray
// <id>.json (the retired whole-snapshot form, or anything else an
// operator dropped there) is neither registered as a session nor
// removed — at boot, or when a session of that id is created and
// deleted beside it.
func TestManagerIgnoresStrayJSON(t *testing.T) {
	stateDir := t.TempDir()
	golden, err := os.ReadFile(filepath.Join("testdata", "snapshot_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(stateDir, "db.json")
	if err := os.WriteFile(stray, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerOpts(stateDir, ManagerOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if list := m.List(); len(list) != 0 {
		t.Fatalf("stray db.json registered as a session: %+v", list)
	}
	if _, err := m.Get("db"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on a stray file's id: err = %v, want ErrNotFound", err)
	}
	if _, err := m.Create("db", Config{Space: "case5", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("db"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(stray)
	if err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("stray db.json was touched: err %v, %d bytes (wrote %d)", err, len(got), len(golden))
	}
}

// TestManagerBootRejectsOtherVersion: a base snapshot at any version but
// the current one fails boot with an error naming both versions.
func TestManagerBootRejectsOtherVersion(t *testing.T) {
	stateDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(stateDir, "db.base.json"), goldenAtVersion(t, 8), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewManagerOpts(stateDir, ManagerOptions{NoFsync: true})
	if err == nil {
		t.Fatal("booted over a version-8 base snapshot")
	}
	for _, frag := range []string{`"db"`, "version 8", "want 10"} {
		//tunevet:ignore errsentinel -- the assertion is on the operator-facing text (it must name the session and both versions), not on error identity
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("boot error %q does not mention %s", err, frag)
		}
	}
}

// TestManagerDurabilityFailure covers the checkpoint-failure contract:
// a single fault is absorbed by the retry; a persistent fault surfaces
// ErrDurability (HTTP 503) while the session still advances in memory;
// and once the fault clears, the next operation flushes the backlog so
// a restart recovers the full history.
func TestManagerDurabilityFailure(t *testing.T) {
	stateDir := t.TempDir()
	m, err := NewManagerOpts(stateDir, ManagerOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Space: "case5", Seed: 17}
	if _, err := m.Create("db", cfg); err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	managedStep(t, m, "db", ref, 0)

	// One fault: the in-line retry absorbs it.
	faults := int32(1)
	m.checkpointFailure = func() error {
		if atomic.AddInt32(&faults, -1) >= 0 {
			return errors.New("injected checkpoint fault")
		}
		return nil
	}
	managedStep(t, m, "db", ref, 1)
	if st := m.Stats(); st.DurabilityRetries != 1 {
		t.Fatalf("retry not counted: %+v", st)
	}

	// Persistent fault: memory advances, ErrDurability surfaces.
	atomic.StoreInt32(&faults, 1<<30)
	adv, err := m.Suggest(context.Background(), "db")
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("Suggest under persistent fault: err = %v, want ErrDurability", err)
	}
	want, err := ref.Suggest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(adv, want) {
		t.Fatalf("advice under durability failure diverged: %+v vs %+v", adv, want)
	}
	iter, err := m.Report("db", goldenOutcome(2))
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("Report under persistent fault: err = %v, want ErrDurability", err)
	}
	if iter != 3 {
		t.Fatalf("session did not advance in memory: iter %d, want 3", iter)
	}
	if err := ref.Report(goldenOutcome(2)); err != nil {
		t.Fatal(err)
	}

	// The transport maps it to 503.
	srv := httptest.NewServer(NewServer(m))
	req, _ := http.NewRequest("POST", srv.URL+"/v1/sessions/db/suggest", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("durability failure mapped to %d, want 503", resp.StatusCode)
	}
	if _, err := ref.Suggest(context.Background()); err != nil {
		t.Fatal(err) // mirror the 503'd suggest: it advanced in memory
	}

	// Fault clears: the next operation flushes the whole backlog, so a
	// restarted manager sees every interval, including the 503'd ones.
	atomic.StoreInt32(&faults, 0)
	if _, err := m.Report("db", goldenOutcome(3)); err != nil {
		t.Fatal(err)
	}
	if err := ref.Report(goldenOutcome(3)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManagerOpts(stateDir, ManagerOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	managedStep(t, m2, "db", ref, 4)
}

// TestManagerRolloutEvictionRestart drives a rollout-enabled session to
// a canary promotion while eviction churn (a second session under
// MaxResident 1) and periodic manager restarts keep forcing it through
// the WAL recovery path. Promote/rollback events ride the WAL tail like
// any other event, so advice and rollout status must stay bitwise
// identical to an uninterrupted reference the whole way.
func TestManagerRolloutEvictionRestart(t *testing.T) {
	stateDir := t.TempDir()
	opts := ManagerOptions{MaxResident: 1, NoFsync: true}
	m, err := openManager(stateDir, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Space: "case5", Seed: 3, Rollout: &RolloutConfig{Window: 2}}
	if _, err := m.Create("canary", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("filler", Config{Space: "case5", Seed: 8}); err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outcome := func(i int, staged bool) Outcome {
		o := goldenOutcome(i)
		o.Performance = 105 + float64(i%5)
		o.Baseline = 90
		if staged {
			o.Measurements = map[Role]ReplicaPerf{RoleStaged: {Performance: 130}}
		}
		return o
	}
	const maxIters = 120
	promoted := false
	for i := 0; i < maxIters && !promoted; i++ {
		if i > 0 && i%25 == 0 {
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if m, err = openManager(stateDir, opts, 8); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 5 {
			// Touching the filler under MaxResident 1 evicts the canary.
			if _, err := m.Suggest(context.Background(), "filler"); err != nil {
				t.Fatal(err)
			}
		}
		adv, err := m.Suggest(context.Background(), "canary")
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		want, err := ref.Suggest(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(adv, want) {
			t.Fatalf("iter %d: advice diverged\nmanaged:   %+v\nreference: %+v", i, adv, want)
		}
		o := outcome(i, adv.RolloutPhase == RolloutTuning)
		if _, err := m.Report("canary", o); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if err := ref.Report(o); err != nil {
			t.Fatal(err)
		}
		st, err := m.Rollout("canary")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, ref.Rollout()) {
			t.Fatalf("iter %d: rollout status diverged\nmanaged:   %+v\nreference: %+v", i, st, ref.Rollout())
		}
		promoted = st.Promotions > 0
	}
	if !promoted {
		t.Fatalf("no canary promotion within %d iterations", maxIters)
	}
	if st := m.Stats(); st.Evictions == 0 || st.Hydrations == 0 {
		t.Fatalf("rollout run saw no eviction churn: %+v", st)
	}
}

// TestManagerBootSweep: stale atomic-write temps are removed at boot,
// and an orphan WAL tail (its base never renamed into place) is cleaned
// up rather than registered as a session.
func TestManagerBootSweep(t *testing.T) {
	stateDir := t.TempDir()
	m, err := NewManagerOpts(stateDir, ManagerOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("db", Config{Space: "case5", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".db-1234567", ".other-887766"} {
		if err := os.WriteFile(filepath.Join(stateDir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(stateDir, "ghost.wal"), []byte("orphan tail"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManagerOpts(stateDir, ManagerOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := m2.Stats(); st.SweptTempFiles != 2 || st.Sessions != 1 {
		t.Fatalf("boot sweep stats: %+v", st)
	}
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "ghost.wal" || e.Name()[0] == '.' {
			t.Fatalf("boot left %s behind", e.Name())
		}
	}
	if list := m2.List(); len(list) != 1 || list[0].ID != "db" {
		t.Fatalf("sessions after sweep: %+v", list)
	}
}

// TestManagerEvictionRaceHammer runs concurrent operations, listings
// and delete/create cycles against a manager whose residency bound
// forces constant eviction and rehydration. Run under -race it checks
// the lock discipline; the final iteration counts check that no report
// was lost in the churn.
func TestManagerEvictionRaceHammer(t *testing.T) {
	m, err := openManager(t.TempDir(), ManagerOptions{MaxResident: 2, NoFsync: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	const ids = 4
	for g := 0; g < ids; g++ {
		if _, err := m.Create(fmt.Sprintf("db-%d", g), Config{Space: "case5", Seed: int64(g)}); err != nil {
			t.Fatal(err)
		}
	}
	var reports [ids]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				g := (w + i) % ids
				id := fmt.Sprintf("db-%d", g)
				if _, err := m.Suggest(context.Background(), id); err != nil {
					t.Errorf("Suggest %s: %v", id, err)
					return
				}
				if _, err := m.Report(id, goldenOutcome(i)); err != nil {
					t.Errorf("Report %s: %v", id, err)
					return
				}
				reports[g].Add(1)
				if i%3 == 0 {
					m.List()
					m.Stats()
				}
			}
		}()
	}
	// Churn an unrelated id through delete/create cycles concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			id := "churn"
			if _, err := m.Create(id, Config{Space: "case5", Seed: 99}); err != nil {
				t.Errorf("Create %s: %v", id, err)
				return
			}
			if _, err := m.Suggest(context.Background(), id); err != nil {
				t.Errorf("Suggest %s: %v", id, err)
				return
			}
			if err := m.Delete(id); err != nil {
				t.Errorf("Delete %s: %v", id, err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, info := range m.List() {
		var g int
		if _, err := fmt.Sscanf(info.ID, "db-%d", &g); err != nil {
			t.Fatalf("unexpected session %q", info.ID)
		}
		if want := int(reports[g].Load()); info.Iter != want {
			t.Fatalf("%s at iter %d, want %d", info.ID, info.Iter, want)
		}
	}
	if st := m.Stats(); st.Hydrated > 2 || st.Sessions != ids {
		t.Fatalf("after hammer: %+v", st)
	}
}

// TestManagerListDuringCreate: a session is published with its summary,
// so a List racing its first persist (milliseconds of disk I/O in
// production) never shows a blank entry.
func TestManagerListDuringCreate(t *testing.T) {
	m, err := NewManagerOpts(t.TempDir(), ManagerOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	entered, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	m.checkpointFailure = func() error {
		once.Do(func() { close(entered) })
		<-unblock
		return nil
	}
	created := make(chan error, 1)
	go func() {
		_, err := m.Create("db", Config{Space: "case5", Seed: 1})
		created <- err
	}()
	select {
	case <-entered: // Create holds the gate inside its first persist
	case err := <-created:
		t.Fatalf("Create returned before its first persist: %v", err)
	}
	list := m.List()
	close(unblock)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("List during create = %+v, want the one session", list)
	}
	for _, info := range list {
		if info.ID == "" || info.Space != "case5" {
			t.Fatalf("List during create shows a blank session: %+v", info)
		}
	}
}

// TestManagerInfoProbeDoesNotHydrate: GET /v1/sessions/{id} answers from
// the cached summary, so probing an evicted session neither hydrates it
// nor evicts the resident one, and still reports its current iteration.
func TestManagerInfoProbeDoesNotHydrate(t *testing.T) {
	m, err := NewManagerOpts(t.TempDir(), ManagerOptions{MaxResident: 1, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Create("cold", Config{Space: "case5", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Suggest(context.Background(), "cold"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Report("cold", goldenOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create("hot", Config{Space: "case5", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	if before.Evicted != 1 {
		t.Fatalf("setup: want cold evicted, got %+v", before)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	var info SessionInfo
	doJSON(t, srv, "GET", "/v1/sessions/cold", nil, http.StatusOK, &info)
	if info.ID != "cold" || info.Space != "case5" || info.Iter != 2 {
		t.Fatalf("probe of the evicted session = %+v", info)
	}
	doJSON(t, srv, "GET", "/v1/sessions/nope", nil, http.StatusNotFound, nil)
	if after := m.Stats(); after.Hydrations != before.Hydrations || after.Evictions != before.Evictions {
		t.Fatalf("status probe moved residency: before %+v, after %+v", before, after)
	}
}

// freshSeeds returns n seeds no earlier test or -count repetition in this
// process has pre-trained, so featurize.Pretrainings deltas are exact.
func freshSeeds(n int64) int64 { return 1<<40 + nextFreshSeed.Add(n) - n }

var nextFreshSeed atomic.Int64

// TestHydrateDoesNotRetrain is the counter gate for the shared query
// encoder: under MaxResident 1 every touch of another session is an
// evict→hydrate, yet the process pre-trains once per seed — at create —
// and a hydrated session's snapshot is byte-identical to the one it had
// when it was evicted.
func TestHydrateDoesNotRetrain(t *testing.T) {
	m, err := openManager(t.TempDir(), ManagerOptions{MaxResident: 1, NoFsync: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ids := []string{"a", "b", "c"}
	seed := freshSeeds(int64(len(ids)))
	before := featurize.Pretrainings()
	atEvict := map[string][]byte{}
	for g, id := range ids {
		if _, err := m.Create(id, Config{Space: "case5", Seed: seed + int64(g)}); err != nil {
			t.Fatal(err)
		}
		if atEvict[id], err = m.Snapshot(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		id := ids[i%len(ids)]
		hydrated, err := m.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hydrated, atEvict[id]) {
			t.Fatalf("touch %d: %s hydrated to a different snapshot than it was evicted with", i, id)
		}
		if _, err := m.Suggest(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Report(id, goldenOutcome(i)); err != nil {
			t.Fatal(err)
		}
		if atEvict[id], err = m.Snapshot(id); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Hydrations < 30 {
		t.Fatalf("expected every touch to hydrate under MaxResident 1: %+v", st)
	}
	if d := featurize.Pretrainings() - before; d != int64(len(ids)) {
		t.Fatalf("%d pre-trainings for %d seeds across 30 hydrations", d, len(ids))
	}
}

// TestDuplicateCreateBuildsNothing: creating a taken id answers ErrExists
// before any session is built — a fresh seed in the duplicate's config is
// never pre-trained — whether the holder is resident or evicted.
func TestDuplicateCreateBuildsNothing(t *testing.T) {
	m, err := NewManagerOpts(t.TempDir(), ManagerOptions{MaxResident: 1, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seed := freshSeeds(3)
	for g, id := range []string{"evicted", "resident"} {
		if _, err := m.Create(id, Config{Space: "case5", Seed: seed + int64(g)}); err != nil {
			t.Fatal(err)
		}
	}
	before := featurize.Pretrainings()
	for _, id := range []string{"evicted", "resident"} {
		if _, err := m.Create(id, Config{Space: "case5", Seed: seed + 2}); !errors.Is(err, ErrExists) {
			t.Fatalf("duplicate create of %s: %v, want ErrExists", id, err)
		}
	}
	if d := featurize.Pretrainings() - before; d != 0 {
		t.Fatalf("duplicate creates pre-trained %d times", d)
	}
}

// TestSessionKeepsNoOpLog: an op hands its WAL record to the Manager and
// the session keeps nothing of it, so neither an in-memory Manager,
// which persists nothing, nor a standalone session retains a per-op
// event.
func TestSessionKeepsNoOpLog(t *testing.T) {
	m, err := NewManagerOpts("", ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cfg := Config{Space: "case5", Seed: 31}
	if _, err := m.Create("db", cfg); err != nil {
		t.Fatal(err)
	}
	standalone, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		managedStep(t, m, "db", standalone, i)
	}
	managed, err := m.Get("db")
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Session{"in-memory managed": managed, "standalone": standalone} {
		if n := s.EventCount(); n != 0 {
			t.Errorf("%s session holds %d events after 50 intervals, want 0", name, n)
		}
	}
}

// TestCreateRefusedStaysRefused: a create whose first persist fails
// after its base was renamed into place (the tail's path is a
// directory, so the tail cannot open) is refused, and it stays refused
// across a restart: the rollback removes the base, so the next boot
// does not list the session.
func TestCreateRefusedStaysRefused(t *testing.T) {
	dir := t.TempDir()
	tail := filepath.Join(dir, "x.wal")
	if err := os.Mkdir(tail, 0o755); err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerOpts(dir, ManagerOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("x", Config{Space: "case5", Seed: 1}); err == nil {
		t.Fatal("a create whose tail cannot open succeeded")
	}
	if got := m.List(); len(got) != 0 {
		t.Fatalf("a refused create is listed: %+v", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(tail); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManagerOpts(dir, ManagerOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.List(); len(got) != 0 {
		t.Fatalf("a refused create came back after a restart: %+v", got)
	}
}
