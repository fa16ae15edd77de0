package knowledge

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func contrib(space string, ctx []float64, unit []float64, perf, tau float64) Contribution {
	return Contribution{
		Engine: "mysql", Space: space, Context: ctx,
		Config: SafeConfig{Unit: unit, Perf: perf, Tau: tau},
	}
}

func TestContributeAndQuery(t *testing.T) {
	s := NewStore(DefaultParams())
	ctx := []float64{0.5, 0.5}
	s.Contribute(contrib("full", ctx, []float64{0.1, 0.9}, 120, 100))
	s.Contribute(contrib("full", ctx, []float64{0.2, 0.8}, 150, 100))
	s.Contribute(Contribution{Engine: "mysql", Space: "full", Context: ctx,
		Config: SafeConfig{Unit: []float64{0.3, 0.7}, Perf: 110, Tau: 100, Promoted: true}})

	adv := s.Query("mysql", "full", []float64{0.5, 0.52})
	if adv == nil {
		t.Fatal("expected advice")
	}
	if len(adv.Configs) != 3 {
		t.Fatalf("got %d configs, want 3", len(adv.Configs))
	}
	// Promoted outranks higher-score unpromoted.
	if !adv.Configs[0].Promoted {
		t.Errorf("first config should be the promoted one: %+v", adv.Configs)
	}
	if adv.Configs[1].Perf != 150 {
		t.Errorf("second config should be the best unpromoted (perf 150), got %v", adv.Configs[1].Perf)
	}
	if adv.Weight != 3 {
		t.Errorf("weight = %d, want 3", adv.Weight)
	}

	// Wrong engine or space: nothing.
	if s.Query("pg", "full", ctx) != nil {
		t.Error("query for wrong engine should miss")
	}
	if s.Query("mysql", "case5", ctx) != nil {
		t.Error("query for wrong space should miss")
	}
}

func TestQueryMissesOnEmptyStore(t *testing.T) {
	s := NewStore(DefaultParams())
	if adv := s.Query("mysql", "full", []float64{0.1}); adv != nil {
		t.Fatalf("empty store returned advice: %+v", adv)
	}
	st := s.Stats()
	if st.Queries != 1 || st.WarmStarts != 0 {
		t.Errorf("stats = %+v, want 1 query, 0 warm starts", st)
	}
}

func TestContributionSanitized(t *testing.T) {
	s := NewStore(DefaultParams())
	ctx := []float64{0.5}
	// Out-of-bounds units are clamped into [0,1].
	s.Contribute(contrib("full", ctx, []float64{-0.5, 1.5, 0.3}, 120, 100))
	// Non-finite payloads are dropped.
	s.Contribute(contrib("full", ctx, []float64{math.NaN(), 0.5, 0.5}, 130, 100))
	s.Contribute(contrib("full", ctx, []float64{math.Inf(1), 0.5, 0.5}, 130, 100))
	s.Contribute(Contribution{Engine: "mysql", Space: "full", Context: []float64{math.NaN()},
		Config: SafeConfig{Unit: []float64{0.5}, Perf: 1, Tau: 1}})

	adv := s.Query("mysql", "full", ctx)
	if adv == nil || len(adv.Configs) != 1 {
		t.Fatalf("want exactly the one sanitized config, got %+v", adv)
	}
	want := []float64{0, 1, 0.3}
	if !reflect.DeepEqual(adv.Configs[0].Unit, want) {
		t.Errorf("unit = %v, want clamped %v", adv.Configs[0].Unit, want)
	}
}

// TestAdviceAlwaysInBounds is the transfer-safety property: whatever
// garbage is contributed, every configuration the store hands out lies
// inside the unit hypercube with finite values.
func TestAdviceAlwaysInBounds(t *testing.T) {
	p := DefaultParams()
	p.MaxClusters, p.MaxConfigs = 4, 4
	s := NewStore(p)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		dim := 2 + rng.Intn(3)
		u := make([]float64, dim)
		for j := range u {
			switch rng.Intn(6) {
			case 0:
				u[j] = rng.Float64()*6 - 3 // out of bounds
			case 1:
				u[j] = math.NaN()
			case 2:
				u[j] = math.Inf(1)
			default:
				u[j] = rng.Float64()
			}
		}
		ctx := []float64{rng.Float64() * 4, rng.Float64() * 4}
		s.Contribute(contrib("full", ctx, u, rng.NormFloat64()*100, 100))
	}
	for i := 0; i < 50; i++ {
		ctx := []float64{rng.Float64() * 4, rng.Float64() * 4}
		adv := s.Query("mysql", "full", ctx)
		if adv == nil {
			continue
		}
		for _, c := range adv.Configs {
			for _, v := range c.Unit {
				if math.IsNaN(v) || v < 0 || v > 1 {
					t.Fatalf("advice leaked out-of-bounds unit %v", c.Unit)
				}
			}
		}
	}
}

func TestClusterMergeAndSplit(t *testing.T) {
	p := DefaultParams()
	p.MergeRadius = 0.05
	s := NewStore(p)
	// Two well separated context groups become two clusters.
	for i := 0; i < 5; i++ {
		s.Contribute(contrib("full", []float64{0.1 + float64(i)*0.01}, []float64{0.2}, 110, 100))
		s.Contribute(contrib("full", []float64{2.0 + float64(i)*0.01}, []float64{0.8}, 120, 100))
	}
	st := s.Stats()
	if st.Clusters != 2 {
		t.Fatalf("clusters = %d, want 2", st.Clusters)
	}
	// Queries route to the nearest centroid.
	if adv := s.Query("mysql", "full", []float64{0.05}); adv == nil || adv.Configs[0].Unit[0] != 0.2 {
		t.Errorf("near-zero context should match the first cluster: %+v", adv)
	}
	if adv := s.Query("mysql", "full", []float64{2.5}); adv == nil || adv.Configs[0].Unit[0] != 0.8 {
		t.Errorf("far context should match the second cluster: %+v", adv)
	}
}

func TestHyperMedian(t *testing.T) {
	s := NewStore(DefaultParams())
	ctx := []float64{1}
	for i, h := range [][]float64{{1, 10}, {3, 30}, {2, 20}} {
		c := contrib("full", ctx, []float64{float64(i) / 10}, 110, 100)
		c.Hyper = h
		s.Contribute(c)
	}
	adv := s.Query("mysql", "full", ctx)
	if adv == nil {
		t.Fatal("expected advice")
	}
	if !reflect.DeepEqual(adv.Hyper, []float64{2, 20}) {
		t.Errorf("hyper median = %v, want [2 20]", adv.Hyper)
	}
	// Mismatched hyper lengths are dropped, not mixed.
	c := contrib("full", ctx, []float64{0.9}, 110, 100)
	c.Hyper = []float64{5}
	s.Contribute(c)
	if adv := s.Query("mysql", "full", ctx); len(adv.Hyper) != 2 {
		t.Errorf("mismatched hyper length leaked into the median: %v", adv.Hyper)
	}
}

func TestCapsEnforced(t *testing.T) {
	p := DefaultParams()
	p.MaxClusters, p.MaxConfigs, p.MaxHypers, p.MergeRadius = 3, 2, 2, 0.01
	s := NewStore(p)
	for i := 0; i < 10; i++ {
		c := contrib("full", []float64{float64(i)}, []float64{float64(i) / 10}, 100+float64(i), 100)
		c.Hyper = []float64{float64(i)}
		s.Contribute(c)
	}
	st := s.Stats()
	if st.Clusters > 3 {
		t.Errorf("clusters = %d, want <= 3", st.Clusters)
	}
	if st.Entries > 3*2 {
		t.Errorf("entries = %d, want <= 6", st.Entries)
	}
	if st.Hypers > 3*2 {
		t.Errorf("hypers = %d, want <= 6", st.Hypers)
	}
	if st.Contributions != 10 {
		t.Errorf("contributions = %d, want 10 (lifetime counter ignores eviction)", st.Contributions)
	}
}

// TestSnapshotRoundTrip: a restored store answers queries
// bitwise-identically, through JSON (the durable form).
func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore(DefaultParams())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		c := contrib("full", []float64{rng.Float64() * 3, rng.Float64()},
			[]float64{rng.Float64(), rng.Float64(), rng.Float64()}, 90+rng.Float64()*40, 100)
		if i%3 == 0 {
			c.Hyper = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		if i%7 == 0 {
			c.Config.Promoted = true
		}
		s.Contribute(c)
	}
	data, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	r := NewStore(DefaultParams())
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ctx := []float64{rng.Float64() * 3, rng.Float64()}
		a, b := s.Query("mysql", "full", ctx), r.Query("mysql", "full", ctx)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("restored store diverged on ctx %v:\n%+v\nvs\n%+v", ctx, a, b)
		}
	}
	if got, want := r.Stats().Contributions, s.Stats().Contributions; got != want {
		t.Errorf("restored contributions = %d, want %d", got, want)
	}
}

func TestRestoreRejectsUnknownVersion(t *testing.T) {
	s := NewStore(DefaultParams())
	if err := s.Restore(Snapshot{Version: SnapshotVersion + 1}); err == nil {
		t.Fatal("restore accepted an unknown snapshot version")
	}
	if _, err := s.Merge(Snapshot{Version: 0}); err == nil {
		t.Fatal("merge accepted version 0")
	}
}

func TestMerge(t *testing.T) {
	a := NewStore(DefaultParams())
	ctxA := []float64{0.5}
	c := contrib("full", ctxA, []float64{0.3}, 140, 100)
	c.Hyper = []float64{1, 2}
	a.Contribute(c)
	a.Contribute(contrib("case5", []float64{1.5}, []float64{0.7}, 130, 100))

	b := NewStore(DefaultParams())
	b.Contribute(contrib("full", ctxA, []float64{0.9}, 105, 100))
	n, err := b.Merge(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("merged %d records, want 3 (2 configs + 1 hyper)", n)
	}
	adv := b.Query("mysql", "full", ctxA)
	if adv == nil || len(adv.Configs) != 2 {
		t.Fatalf("merged store should hold both full-space configs: %+v", adv)
	}
	if adv.Configs[0].Perf != 140 {
		t.Errorf("best config after merge = %v, want the imported perf-140 one", adv.Configs[0])
	}
	if len(adv.Hyper) != 2 {
		t.Errorf("imported hypers missing: %v", adv.Hyper)
	}
	if b.Query("mysql", "case5", []float64{1.5}) == nil {
		t.Error("imported case5 cluster missing")
	}
}

// TestConcurrentHammer drives many contributing and querying sessions
// through one store under -race.
func TestConcurrentHammer(t *testing.T) {
	s := NewStore(DefaultParams())
	const (
		sessions = 16
		ops      = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			space := fmt.Sprintf("space-%d", g%3)
			for i := 0; i < ops; i++ {
				switch rng.Intn(4) {
				case 0:
					adv := s.Query("mysql", space, []float64{rng.Float64() * 2})
					if adv != nil {
						for _, c := range adv.Configs {
							for _, v := range c.Unit {
								if v < 0 || v > 1 || math.IsNaN(v) {
									panic("out-of-bounds advice under concurrency")
								}
							}
						}
						// Mutating returned advice must not corrupt the store.
						for i := range adv.Centroid {
							adv.Centroid[i] = -1
						}
					}
				case 1:
					_ = s.Stats()
				case 2:
					snap := s.Snapshot()
					_, _ = json.Marshal(snap)
				default:
					c := contrib(space, []float64{rng.Float64() * 2},
						[]float64{rng.Float64(), rng.Float64()}, 90+rng.Float64()*30, 100)
					if rng.Intn(3) == 0 {
						c.Hyper = []float64{rng.NormFloat64()}
					}
					s.Contribute(c)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Contributions == 0 || st.Entries == 0 {
		t.Fatalf("hammer left an empty store: %+v", st)
	}
}
