package repo

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestAddLenAll(t *testing.T) {
	r := New()
	if r.Len() != 0 {
		t.Fatal("new repo not empty")
	}
	r.Add(Observation{Iter: 1, Perf: 10, Context: []float64{0.5}})
	r.Add(Observation{Iter: 2, Perf: 20})
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	all := r.All()
	if all[0].Perf != 10 || all[1].Perf != 20 {
		t.Fatalf("All = %+v", all)
	}
	// All returns a copy.
	all[0].Perf = 99
	if r.All()[0].Perf != 10 {
		t.Fatal("All aliases internal storage")
	}
}

func TestContextsCopied(t *testing.T) {
	r := New()
	ctx := []float64{1, 2}
	r.Add(Observation{Context: ctx})
	got := r.Contexts()
	got[0][0] = 99
	if r.Contexts()[0][0] != 1 {
		t.Fatal("Contexts aliases stored slices")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repo.json")
	r := New()
	r.Add(Observation{Iter: 3, Context: []float64{0.1, 0.2}, Unit: []float64{0.9}, Perf: 42, Tau: 40, Safe: true})
	r.Add(Observation{Iter: 4, Perf: 10, Failed: true})
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var obs []Observation
	if err := json.Unmarshal(data, &obs); err != nil {
		t.Fatal(err)
	}
	if len(obs) != 2 {
		t.Fatalf("loaded %d observations", len(obs))
	}
	if obs[0].Perf != 42 || !obs[0].Safe || obs[0].Context[1] != 0.2 {
		t.Fatalf("first obs corrupted: %+v", obs[0])
	}
	if !obs[1].Failed {
		t.Fatal("failure flag lost")
	}
}

func TestBoundedEvictsOldestFirst(t *testing.T) {
	r := NewBounded(3)
	for i := 0; i < 5; i++ {
		ev := r.Add(Observation{Iter: i})
		if want := i >= 3; (ev == 1) != want {
			t.Fatalf("Add #%d evicted %d", i, ev)
		}
	}
	all := r.All()
	if len(all) != 3 || all[0].Iter != 2 || all[2].Iter != 4 {
		t.Fatalf("want iters [2 3 4], got %+v", all)
	}
	st := r.Stats()
	if st.Len != 3 || st.Cap != 3 || st.Added != 5 || st.Evicted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// All still copies under a bounded repo.
	all[0].Perf = 99
	if r.All()[0].Perf != 0 {
		t.Fatal("All aliases internal storage")
	}
}

func TestUnboundedStats(t *testing.T) {
	r := New()
	r.Add(Observation{})
	if st := r.Stats(); st.Cap != 0 || st.Evicted != 0 || st.Added != 1 || st.Len != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if NewBounded(-5).Stats().Cap != 0 {
		t.Fatal("negative cap should mean unbounded")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Add(Observation{Iter: k*100 + j})
				_ = r.Len()
				_ = r.All()
			}
		}(i)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("Len = %d after concurrent adds", r.Len())
	}
}
