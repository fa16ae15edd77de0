package tune

import (
	"bytes"
	"context"
	"maps"
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
	f.Add(goldenAtVersion(f, 6))
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
	f.Add([]byte(`{"kind":"something.Else","version":7}`))
	f.Add([]byte(`{"kind":"tune.Session","version":7,"config":{"space":"nope"}}`))
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
