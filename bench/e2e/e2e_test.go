package main

import (
	"reflect"
	"regexp"
	"testing"
)

func TestHotColdSchedule(t *testing.T) {
	got := hotCold(16, 3, 12)
	want := []int{0, 1, 2, 0, 3, 1, 2, 0, 1, 4, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hotCold(16, 3, 12) = %v, want %v", got, want)
	}
	// One op in five is cold and the 13 cold sessions take turns, so no
	// cold session is resident when its turn comes round again.
	full := hotCold(16, 3, 800)
	cold := 0
	for _, j := range full {
		if j >= 3 {
			cold++
		}
	}
	if cold != 160 {
		t.Fatalf("800 ops held %d cold touches, want 160", cold)
	}
	// 160 cold touches each hydrate; the 3 hot sessions hydrate once,
	// since set-up leaves the last 4 created sessions resident.
	if n := hydrations(full, 16, 4); n != 163 {
		t.Fatalf("hydrations = %d, want 163", n)
	}
	// The figure README.md quotes for the workload as shipped.
	sp, err := findWorkload("fleet-churn")
	if err != nil {
		t.Fatal(err)
	}
	if n := hydrations(sp.schedule, sp.sessions, sp.mgr.MaxResident); n != 112 {
		t.Fatalf("fleet-churn predicts %d hydrations, README.md says 112", n)
	}
}

func TestRoundRobin(t *testing.T) {
	if got, want := roundRobin(3, 2), []int{0, 1, 2, 0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("roundRobin(3, 2) = %v, want %v", got, want)
	}
}

func TestPerOpMinAggregation(t *testing.T) {
	// 1 session, no warm-up, 40 measured intervals: op 0 opens, op 1
	// creates, then suggest/report pairs, reopen, get.
	sp := spec{sessions: 1, schedule: roundRobin(1, 40)}
	lay := sp.layout()
	lap := func(disturbed int) lapResult {
		ns := make([]int64, lay.total())
		for i := range ns {
			ns[i] = 1e6
		}
		// Interval 7 is genuinely slow in every lap; one other op is
		// disturbed in this lap only.
		ns[lay.suggest(7)] = 9e6
		ns[disturbed] += 50e6
		return lapResult{NS: [][]int64{ns}, HeapBytes: uint64(disturbed) << 20,
			Exact: exact{Attempted: 80, DiskBytes: 2048, WALBytes: 4000, Fsyncs: 80, TunedSum: 44, Safe: 38}}
	}
	laps := []lapResult{lap(lay.report(3)), lap(lay.suggest(20)), lap(lay.create(0))}
	if err := checkLaps(sp, laps); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range endToEnd(sp, laps) {
		got[m.Name] = m.Value
	}
	want := map[string]float64{
		"setup_s":                0.002,
		"intervals_per_s":        40 / 0.088,
		"interval_p50_ms":        2,
		"interval_tail5_ms":      (10 + 2) / 2.0, // slowest 2 of 40
		"recover_s":              0.002,
		"live_heap_mb":           float64(lay.create(0)),
		"disk_kb_per_session":    2,
		"wal_bytes_per_interval": 100,
		"fsyncs_per_interval":    2,
		"tuned_over_default":     1.1,
		"safe_frac":              0.95,
		"ok_frac":                1,
	}
	for name, w := range want {
		if g := got[name]; g < w*(1-1e-12) || g > w*(1+1e-12) {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}

	laps[1].Exact.Fsyncs++
	if err := checkLaps(sp, laps); err == nil {
		t.Error("checkLaps accepted laps that counted different fsyncs")
	}
}

func TestTailMean(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := tailMean(xs, 0.4); got != 4.5 {
		t.Errorf("tailMean(0.4) = %v, want 4.5", got)
	}
	if got := tailMean(xs, 0.01); got != 5 {
		t.Errorf("tailMean(0.01) = %v, want 5", got)
	}
}

// shrunk cuts a workload to 4 sessions of 5 intervals, keeping its shape:
// stack, options, schedule kind and residency pressure.
func shrunk(sp spec) spec {
	sp.sessions = 4
	sp.transfers = false // five intervals promote nothing
	if sp.warmup > 2 {
		sp.warmup = 2
	}
	if sp.mgr.MaxResident > 0 {
		sp.mgr.MaxResident = 2
		sp.schedule = hotCold(4, 1, 20)
	} else {
		sp.schedule = roundRobin(4, 5)
	}
	return sp
}

// TestSmoke runs two untraced laps and the traced lap of every workload
// shape. runWorkload fails on any lap divergence, on a recovery that
// does not reproduce the acked state, and on peeled stacks disagreeing
// about advice, so passing asserts determinism and equivalence; the
// names printed must be the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	c, err := loadContract("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var wantE2E, wantLayer []string
	for _, e := range c.EndToEnd {
		wantE2E = append(wantE2E, e.Name+" "+e.Unit)
	}
	for _, e := range c.PerLayer {
		wantLayer = append(wantLayer, e.Name+" "+e.Unit)
	}
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			if !valid.MatchString(m.Name) {
				t.Errorf("metric name %q is not a valid contract name", m.Name)
			}
			out = append(out, m.Name+" "+m.Unit)
		}
		return out
	}

	full := workloads()
	if len(full) != len(c.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json names %d", len(full), len(c.Workloads))
	}
	for i, sp := range full {
		if sp.name != c.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json names %q", i, sp.name, c.Workloads[i].Name)
		}
		sp := shrunk(sp)
		t.Run(sp.name, func(t *testing.T) {
			out := t.TempDir()
			r, err := runWorkload(sp, 7, 0, 2, false, out)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Laps) != 2 {
				t.Fatalf("ran %d laps, want 2", len(r.Laps))
			}
			if got := names(r.Metrics); !reflect.DeepEqual(got, wantE2E) {
				t.Errorf("end-to-end metrics printed:\n%v\nBENCHMARK.json declares:\n%v", got, wantE2E)
			}
			x := r.Laps[0].Exact
			if x.Failed != 0 || x.Attempted != 2*len(sp.schedule) {
				t.Errorf("attempted %d failed %d, want %d and 0", x.Attempted, x.Failed, 2*len(sp.schedule))
			}
			if sp.mgr.MaxResident > 0 {
				if want := hydrations(sp.schedule, sp.sessions, sp.mgr.MaxResident); int(x.Hydrations) != want {
					t.Errorf("manager hydrated %d times, the schedule predicts %d", x.Hydrations, want)
				}
			}

			tr, err := runWorkload(sp, 7, 0, 2, true, out)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Digest != r.Digest {
				t.Errorf("traced run advice digest %s, untraced %s", tr.Digest, r.Digest)
			}
			if got := names(tr.Metrics); !reflect.DeepEqual(got, wantLayer) {
				t.Errorf("per-layer metrics printed:\n%v\nBENCHMARK.json declares:\n%v", got, wantLayer)
			}
		})
	}
}
