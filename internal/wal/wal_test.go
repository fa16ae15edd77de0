package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// reopen closes l and reopens the log at path, returning the recovered
// records.
func reopen(t *testing.T, l *Log, path string) (*Log, [][]byte) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	nl, recs, err := Open(path, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	return nl, recs
}

func TestAppendCommitReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	l, recs, err := Open(path, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || l.Count() != 0 || l.Size() != 0 {
		t.Fatalf("fresh log not empty: %d recs, count %d, size %d", len(recs), l.Count(), l.Size())
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf(`{"idx":%d,"payload":"record-%d"}`, i, i))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		// Group commit: flush every third append.
		if i%3 == 2 {
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	l, recs = reopen(t, l, path) // Close flushes the remainder
	defer l.Close()
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
	if l.Count() != len(want) || l.Truncated() != 0 {
		t.Fatalf("count %d truncated %d", l.Count(), l.Truncated())
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	l, _, err := Open(path, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A crash mid-append: append a full record then chop bytes off the
	// end, at every possible torn length of the final frame.
	for cut := 1; cut < headerSize+len("rec-5"); cut++ {
		l2, _, err := Open(path, Options{NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.Append([]byte("rec-5")); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, full[:len(full)-cut], 0o644); err != nil {
			t.Fatal(err)
		}

		l3, recs, err := Open(path, Options{NoFsync: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != 5 {
			t.Fatalf("cut %d: recovered %d records, want the 5 intact ones", cut, len(recs))
		}
		if l3.Truncated() == 0 {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		// The torn bytes must be gone from disk so appends start clean.
		if err := l3.Append([]byte("after-crash")); err != nil {
			t.Fatal(err)
		}
		if err := l3.Close(); err != nil {
			t.Fatal(err)
		}
		l4, recs4, err := Open(path, Options{NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs4) != 6 || string(recs4[5]) != "after-crash" {
			t.Fatalf("cut %d: post-crash append not recovered: %d records", cut, len(recs4))
		}
		l4.Close()
		// Restore the 5-record state for the next cut.
		if err := os.WriteFile(path, intact, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptPayloadStopsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	l, _, err := Open(path, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the LAST record's payload: the scan keeps the
	// two records before it and truncates from the corruption on.
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := Open(path, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2 before the corruption", len(recs))
	}
	if l2.Truncated() == 0 {
		t.Fatal("corruption not reported as truncation")
	}
}

// TestCloseSyncsNothing: closing a log with flushed and buffered
// appends costs no sync point, and flushes the buffered one, so a reopen
// reads both.
func TestCloseSyncsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	var syncs atomic.Int64
	l, _, err := Open(path, Options{NoFsync: true, SyncCounter: &syncs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("flushed")); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := syncs.Load(); got != 0 {
		t.Fatalf("Close cost %d sync points, want 0", got)
	}
	l, recs, err := Open(path, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 2 || string(recs[0]) != "flushed" || string(recs[1]) != "buffered" {
		t.Fatalf("closed log holds %q, want the flushed and the buffered record", recs)
	}
}

func TestResetEmptiesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	l, _, err := Open(path, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 0 || l.Size() != 0 {
		t.Fatalf("after reset: count %d size %d", l.Count(), l.Size())
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	l2, recs := reopen(t, l, path)
	defer l2.Close()
	if len(recs) != 1 || string(recs[0]) != "fresh" {
		t.Fatalf("after reset+append, recovered %q", recs)
	}
}

func TestRejectsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	l, _, err := Open(path, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversized append accepted")
	}
}

func TestStat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.wal")

	// Missing file = empty log.
	n, last, err := Stat(path)
	if err != nil || n != 0 || last != nil {
		t.Fatalf("Stat(missing) = %d, %q, %v", n, last, err)
	}

	l, _, err := Open(path, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-number-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n, last, err = Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 || string(last) != "record-number-6" {
		t.Fatalf("Stat = %d, %q", n, last)
	}

	// Torn tail: Stat reports the intact prefix.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	n, last, err = Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 || string(last) != "record-number-5" {
		t.Fatalf("Stat after tear = %d, %q", n, last)
	}
}

// TestStatAgreesWithOpenOnCorruptFrames: a CRC-corrupt frame anywhere in
// the log ends the intact prefix for Stat exactly as it does for Open,
// so the boot scan's summary is the state hydration recovers.
func TestStatAgreesWithOpenOnCorruptFrames(t *testing.T) {
	for _, tc := range []struct {
		name     string
		corrupt  int // index of the frame whose payload is flipped
		wantN    int
		wantLast string
	}{
		{"final frame", 3, 3, "payload-2"},
		{"second frame", 1, 1, "payload-0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.wal")
			l, _, err := Open(path, Options{NoFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			var ends []int64
			for i := 0; i < 4; i++ {
				if err := l.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
					t.Fatal(err)
				}
				ends = append(ends, l.Size())
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[ends[tc.corrupt]-1] ^= 0xFF // last payload byte of the frame
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			n, last, err := Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			l2, recs, err := Open(path, Options{NoFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if len(recs) != tc.wantN || string(recs[len(recs)-1]) != tc.wantLast {
				t.Fatalf("Open recovered %d records ending %q, want %d ending %q", len(recs), recs[len(recs)-1], tc.wantN, tc.wantLast)
			}
			if n != len(recs) || !bytes.Equal(last, recs[len(recs)-1]) {
				t.Fatalf("Stat = (%d, %q), Open = (%d, %q)", n, last, len(recs), recs[len(recs)-1])
			}
		})
	}
}
