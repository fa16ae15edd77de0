package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fsutil"
)

// Artifact is the machine-readable form of one experiment run, persisted
// as BENCH_<exp>.json so the performance trajectory is comparable across
// changes. Schema changes must stay backward-readable: add fields, never
// rename them. The timing fields are omitted when empty, so a golden
// file under bench/baseline holds only deterministic data.
type Artifact struct {
	ID           string         `json:"id"`
	Title        string         `json:"title"`
	Iters        int            `json:"iters"` // 0 = paper setting
	Seed         int64          `json:"seed"`
	WallClockSec float64        `json:"wall_clock_sec,omitempty"`
	Overhead     []OverheadStat `json:"overhead,omitempty"`
	Series       []*Series      `json:"series,omitempty"`
	Body         string         `json:"body,omitempty"`
}

// OverheadStat summarizes one tuner's computation cost in a run.
type OverheadStat struct {
	Name           string  `json:"name"`
	MeanProposeMs  float64 `json:"mean_propose_ms"`
	MeanFeedbackMs float64 `json:"mean_feedback_ms"`
	MaxIterMs      float64 `json:"max_iter_ms"`
}

// overheadOf aggregates a series' per-iteration timings.
func overheadOf(s *Series) OverheadStat {
	st := OverheadStat{Name: s.Name}
	for i := range s.ProposeMs {
		st.MeanProposeMs += s.ProposeMs[i]
		st.MeanFeedbackMs += s.FeedbackMs[i]
		if t := s.ProposeMs[i] + s.FeedbackMs[i]; t > st.MaxIterMs {
			st.MaxIterMs = t
		}
	}
	if n := float64(len(s.ProposeMs)); n > 0 {
		st.MeanProposeMs /= n
		st.MeanFeedbackMs /= n
	}
	return st
}

// NewArtifact assembles the persistable form of a finished experiment.
func NewArtifact(rep Report, iters int, seed int64, wall time.Duration) Artifact {
	a := Artifact{
		ID: rep.ID, Title: rep.Title, Iters: iters, Seed: seed,
		WallClockSec: wall.Seconds(), Series: rep.Series, Body: rep.Body,
	}
	for _, s := range rep.Series {
		a.Overhead = append(a.Overhead, overheadOf(s))
	}
	return a
}

// EnsureArtifactDir creates the artifact directory if missing and
// verifies it is writable, so drivers can fail fast before running
// experiments.
func EnsureArtifactDir(dir string) error {
	if err := fsutil.EnsureWritableDir(dir); err != nil {
		return fmt.Errorf("artifact dir: %w", err)
	}
	return nil
}

// marshalArtifact renders an artifact as the bytes of a BENCH_*.json
// file: indented JSON with a trailing newline.
func marshalArtifact(a Artifact) ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	return append(data, '\n'), err
}

// WriteJSON persists an artifact into dir as BENCH_<id>.json and returns
// the written path.
func WriteJSON(dir string, a Artifact) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := marshalArtifact(a)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+a.ID+".json")
	return path, os.WriteFile(path, data, 0o644)
}
