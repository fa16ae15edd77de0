package main

import (
	"fmt"

	"repro/internal/mathx"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checkLaps enforces lap determinism: every lap of a run must have made
// the same calls, received the same advice and counted the same work.
func checkLaps(sp spec, laps []lapResult) error {
	if x := laps[0].Exact; sp.transfers && (x.Promotions < 1 || x.WarmStarts < 1) {
		return fmt.Errorf("%d promotions and %d warm starts: the workload must exercise both", x.Promotions, x.WarmStarts)
	}
	for i, l := range laps[1:] {
		if l.Exact != laps[0].Exact {
			return fmt.Errorf("lap %d diverged from lap 0:\n  lap 0: %+v\n  lap %d: %+v", i+1, laps[0].Exact, i+1, l.Exact)
		}
		if len(l.NS[0]) != len(laps[0].NS[0]) {
			return fmt.Errorf("lap %d ran %d ops, lap 0 ran %d", i+1, len(l.NS[0]), len(laps[0].NS[0]))
		}
	}
	return nil
}

// ownLaps extracts the workload's own stack from every lap.
func ownLaps(laps []lapResult) [][]int64 {
	out := make([][]int64, len(laps))
	for i, l := range laps {
		out[i] = l.NS[0]
	}
	return out
}

// intervalMS folds the per-op minimum into one duration per measured
// interval: its suggest plus its report.
func intervalMS(lay layout, opMin []int64) []float64 {
	out := make([]float64, lay.measured)
	for t := range out {
		out[t] = ms(opMin[lay.suggest(t)] + opMin[lay.report(t)])
	}
	return out
}

// endToEnd computes the metrics a user of the service would see from the
// identical laps of one untraced run.
func endToEnd(sp spec, laps []lapResult) []metric {
	lay := sp.layout()
	opMin := perOpMin(ownLaps(laps))
	x := laps[0].Exact
	n := float64(lay.measured)

	iv := intervalMS(lay, opMin)
	heap := laps[0].HeapBytes
	for _, l := range laps[1:] {
		if l.HeapBytes < heap {
			heap = l.HeapBytes
		}
	}
	return []metric{
		{"setup_s", float64(sumNS(opMin[:lay.warmEnd()])) / 1e9, "s"},
		{"intervals_per_s", n / (float64(sumNS(opMin[lay.warmEnd():lay.reopen()])) / 1e9), "1/s"},
		{"interval_p50_ms", mathx.Quantile(iv, 0.5), "ms"},
		{"interval_tail5_ms", tailMean(iv, 0.05), "ms"},
		{"recover_s", float64(sumNS(opMin[lay.reopen():])) / 1e9, "s"},
		{"live_heap_mb", float64(heap) / (1 << 20), "MB"},
		{"disk_kb_per_session", float64(x.DiskBytes) / 1024 / float64(sp.sessions), "KB"},
		{"wal_bytes_per_interval", float64(x.WALBytes) / n, "B"},
		{"fsyncs_per_interval", float64(x.Fsyncs) / n, "count"},
		{"tuned_over_default", x.TunedSum / n, "ratio"},
		{"safe_frac", float64(x.Safe) / n, "ratio"},
		{"ok_frac", 1 - float64(x.Failed)/float64(x.Attempted), "ratio"},
	}
}
