package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCommitterHammer is the -race hammer: many sessions append and
// enqueue concurrently while journal fsyncs fail at random, and some
// sessions compact (Reset+Forget) mid-stream. Afterwards every session
// log must hold exactly the records appended since its last compaction,
// in order — no loss, duplication, or reordering under any mix of
// journaled, degraded, and rotated batches.
func TestCommitterHammer(t *testing.T) {
	dir := t.TempDir()
	var syncs atomic.Int64
	c, err := OpenCommitter(filepath.Join(dir, "fleet.journal"), 100*time.Microsecond, Options{
		NoFsync:     true,
		SyncCounter: &syncs,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.maxJournal = 8 << 10 // force frequent rotation
	var fail atomic.Int64
	var failMu sync.Mutex
	rng := rand.New(rand.NewSource(7))
	c.syncErr = func() error {
		failMu.Lock()
		bad := rng.Intn(5) == 0 // ~20% of journal syncs fail
		failMu.Unlock()
		if bad {
			fail.Add(1)
			return errors.New("injected journal fsync failure")
		}
		return nil
	}

	const sessions, ops = 16, 120
	var wg sync.WaitGroup
	expect := make([][][]byte, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("s%02d", i)
			l, _, err := Open(filepath.Join(dir, id+".wal"), Options{NoFsync: true})
			if err != nil {
				errs[i] = err
				return
			}
			defer l.Close()
			for op := 0; op < ops; op++ {
				payload := []byte(fmt.Sprintf("%s-op%03d", id, op))
				if err := l.Append(payload); err != nil {
					errs[i] = err
					return
				}
				if err := l.Flush(); err != nil {
					errs[i] = err
					return
				}
				wait, err := c.Enqueue(id, l, payload)
				if err != nil {
					errs[i] = err
					return
				}
				if err := wait(); err != nil {
					// NoFsync logs cannot fail their own SyncFile, so
					// injected journal failures must degrade to nil here.
					errs[i] = fmt.Errorf("op %d: unexpected wait error: %w", op, err)
					return
				}
				expect[i] = append(expect[i], payload)
				if op%37 == 36 && i%3 == 0 {
					// Compaction: the base snapshot (not modeled here)
					// supersedes the log; journal records become stale.
					if err := l.Reset(); err != nil {
						errs[i] = err
						return
					}
					c.Forget(l.Path())
					expect[i] = nil
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if fail.Load() == 0 {
		t.Fatal("fault injection never fired; hammer is not exercising degraded batches")
	}
	if c.DegradedBatches() == 0 {
		t.Fatal("no degraded batches despite injected journal failures")
	}

	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%02d", i)
		_, recs, err := Open(filepath.Join(dir, id+".wal"), Options{NoFsync: true})
		if err != nil {
			t.Fatalf("reopen %s: %v", id, err)
		}
		if len(recs) != len(expect[i]) {
			t.Fatalf("%s: %d records, want %d", id, len(recs), len(expect[i]))
		}
		for j, rec := range recs {
			if !bytes.Equal(rec, expect[i][j]) {
				t.Fatalf("%s record %d: %q, want %q", id, j, rec, expect[i][j])
			}
		}
	}

	// Clean Close rotates: the journal must be empty for the next boot.
	n, _, err := Stat(filepath.Join(dir, "fleet.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("journal holds %d records after clean Close, want 0", n)
	}
}

// TestCommitterErrorAttribution verifies that when the shared journal
// fsync fails, the degraded per-log fallback delivers an error to
// exactly the waiters whose own log cannot sync — healthy sessions in
// the same batch still commit cleanly. All three enqueue before the
// first wait, so that wait's batch holds all three.
func TestCommitterErrorAttribution(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCommitter(filepath.Join(dir, "fleet.journal"), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var broken atomic.Bool
	broken.Store(true)
	c.syncErr = func() error {
		if broken.Load() {
			return errors.New("injected journal fsync failure")
		}
		return nil
	}

	open := func(id string) *Log {
		l, _, err := Open(filepath.Join(dir, id+".wal"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	la, lb, lc := open("a"), open("b"), open("c")
	enq := func(id string, l *Log) func() error {
		payload := []byte(id + "-rec")
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		wait, err := c.Enqueue(id, l, payload)
		if err != nil {
			t.Fatal(err)
		}
		return wait
	}
	wa, wb, wc := enq("a", la), enq("b", lb), enq("c", lc)
	lb.f.Close() // b's own fsync now fails; a and c stay healthy

	if err := wa(); err != nil {
		t.Fatalf("healthy session a got error: %v", err)
	}
	if err := wb(); err == nil {
		t.Fatal("session b with broken log got nil from degraded batch")
	}
	if err := wc(); err != nil {
		t.Fatalf("healthy session c got error: %v", err)
	}
	if got := c.DegradedBatches(); got != 1 {
		t.Fatalf("DegradedBatches = %d, want 1", got)
	}

	// The journal was dropped and reopened; once fsyncs heal, the next
	// batch commits through the journal again.
	broken.Store(false)
	if err := enq("a", la)(); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
	c.mu.Lock()
	reopened := c.journal != nil
	c.mu.Unlock()
	if !reopened {
		t.Fatal("journal not reopened after fsyncs healed")
	}
	la.Close()
	lc.Close()
}

// TestCommitterCoalesces pins the coalescing contract by construction:
// K requests enqueued before any of their waits run are one batch, so K
// concurrent waits cost one batch and one journal sync point, whichever
// of them leads. A Close between the enqueues and the waits commits that
// batch itself, and the late waits return its nil results without
// running another.
func TestCommitterCoalesces(t *testing.T) {
	const k = 8
	for _, closeFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("close=%v", closeFirst), func(t *testing.T) {
			dir := t.TempDir()
			var syncs atomic.Int64
			c, err := OpenCommitter(filepath.Join(dir, "fleet.journal"), 0, Options{NoFsync: true, SyncCounter: &syncs})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			waits := make([]func() error, k)
			for i := range waits {
				id := fmt.Sprintf("s%d", i)
				payload := []byte(id + "-0")
				if waits[i], err = c.Enqueue(id, openFlushed(t, dir, id+".wal", nil, payload), payload); err != nil {
					t.Fatal(err)
				}
			}
			if closeFirst {
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}
			before := syncs.Load()
			errs := make([]error, k)
			var wg sync.WaitGroup
			for i, wait := range waits {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = wait()
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("wait %d: %v", i, err)
				}
			}
			if got := c.Batches(); got != 1 {
				t.Fatalf("%d waits ran %d batches, want 1", k, got)
			}
			if got := syncs.Load() - before; !closeFirst && got != 1 {
				t.Fatalf("%d waits cost %d sync points, want 1", k, got)
			} else if closeFirst && got != 0 {
				t.Fatalf("%d waits after Close cost %d sync points, want 0", k, got)
			}
		})
	}
}

// TestCommitterJournalRecovery simulates a crash after journaled
// commits: the session log's bytes may be lost (never fsynced), but
// ReadJournal must yield every committed record in per-session order so
// boot can patch the logs.
func TestCommitterJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "fleet.journal")
	c, err := OpenCommitter(jpath, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l1, _, err := Open(filepath.Join(dir, "x.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2, _, err := Open(filepath.Join(dir, "y.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want1, want2 [][]byte
	for i := 0; i < 5; i++ {
		p1 := []byte(fmt.Sprintf("x-%d", i))
		p2 := []byte(fmt.Sprintf("y-%d", i))
		for _, e := range []struct {
			id string
			l  *Log
			p  []byte
		}{{"x", l1, p1}, {"y", l2, p2}} {
			if err := e.l.Append(e.p); err != nil {
				t.Fatal(err)
			}
			if err := e.l.Flush(); err != nil {
				t.Fatal(err)
			}
			wait, err := c.Enqueue(e.id, e.l, e.p)
			if err != nil {
				t.Fatal(err)
			}
			if err := wait(); err != nil {
				t.Fatal(err)
			}
		}
		want1 = append(want1, p1)
		want2 = append(want2, p2)
	}
	// Crash: no Close, no rotation. Read the journal as boot would.
	got, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	check := func(id string, want [][]byte) {
		recs := got[id]
		if len(recs) != len(want) {
			t.Fatalf("%s: %d journal records, want %d", id, len(recs), len(want))
		}
		for i := range want {
			if !bytes.Equal(recs[i], want[i]) {
				t.Fatalf("%s record %d: %q, want %q", id, i, recs[i], want[i])
			}
		}
	}
	check("x", want1)
	check("y", want2)
	c.Close()
	l1.Close()
	l2.Close()
}

// TestCommitterRotation verifies the journal stays bounded: once it
// outgrows its rotation size (DefaultMaxJournal, lowered here) the
// committer fsyncs the leaning logs by path and truncates it, and
// Forget removes a log from the rotation set.
func TestCommitterRotation(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "fleet.journal")
	var syncs atomic.Int64
	c, err := OpenCommitter(jpath, -1, Options{SyncCounter: &syncs})
	if err != nil {
		t.Fatal(err)
	}
	if c.maxJournal != DefaultMaxJournal {
		t.Fatalf("a committer rotates at %d bytes, want DefaultMaxJournal %d", c.maxJournal, DefaultMaxJournal)
	}
	c.maxJournal = 512
	defer c.Close()
	var logSyncs atomic.Int64
	l, _, err := Open(filepath.Join(dir, "s.wal"), Options{SyncCounter: &logSyncs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("r"), 64)
	for i := 0; i < 64; i++ {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		wait, err := c.Enqueue("s", l, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	bounded := func() {
		t.Helper()
		c.mu.Lock()
		jsize := c.journal.Size()
		c.mu.Unlock()
		if max := int64(512 + 2*(headerSize+2+1+len(payload))); jsize > max {
			t.Fatalf("journal size %d never rotated (cap ~%d)", jsize, max)
		}
	}
	bounded()
	if syncs.Load() <= c.Batches() || logSyncs.Load() != 0 {
		t.Fatalf("%d sync points for %d batches and %d through the log's handle: rotation never fsynced the leaning log by path",
			syncs.Load(), c.Batches(), logSyncs.Load())
	}

	// Forget: after compaction the log leaves the rotation set until its
	// next enqueue re-adds it — so a forgotten, idle log is never synced
	// even while other sessions keep the journal rotating. Its file is
	// gone, so a rotation that tried to sync it would fail and stop
	// truncating the journal.
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	c.Forget(l.Path())
	if err := os.Remove(l.Path()); err != nil {
		t.Fatal(err)
	}
	other, _, err := Open(filepath.Join(dir, "t.wal"), Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	for i := 0; i < 64; i++ {
		if err := other.Append(payload); err != nil {
			t.Fatal(err)
		}
		if err := other.Flush(); err != nil {
			t.Fatal(err)
		}
		wait, err := c.Enqueue("t", other, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	bounded()
}

// TestCommitterSyncsClosedLogByPath: a log whose owner closed it after
// its records were journaled — an evicted session — keeps its sync debt
// with the journal. Rotation, and separately Close, sync it once by path,
// count that sync and truncate the journal.
func TestCommitterSyncsClosedLogByPath(t *testing.T) {
	payload := bytes.Repeat([]byte("r"), 64)
	// journalClosed opens a committer, journals one record of the log
	// a.wal and closes a's handle the way its owner would once the
	// record was acked.
	journalClosed := func(t *testing.T, maxJournal int64) (*Committer, string, *atomic.Int64) {
		dir := t.TempDir()
		var syncs atomic.Int64
		c, err := OpenCommitter(filepath.Join(dir, "fleet.journal"), -1, Options{SyncCounter: &syncs})
		if err != nil {
			t.Fatal(err)
		}
		c.maxJournal = maxJournal
		t.Cleanup(func() { c.Close() })
		a := openFlushed(t, dir, "a.wal", nil, payload)
		wait, err := c.Enqueue("a", a, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		return c, dir, &syncs
	}
	journalEmpty := func(t *testing.T, c *Committer) {
		t.Helper()
		if n, _, err := Stat(c.jpath); err != nil || n != 0 {
			t.Fatalf("journal holds %d records (err %v), want 0", n, err)
		}
	}

	t.Run("rotation", func(t *testing.T) {
		c, dir, syncs := journalClosed(t, 2*int64(headerSize+2+1+len(payload)))
		b := openFlushed(t, dir, "b.wal", nil, payload)
		before := syncs.Load()
		wait, err := c.Enqueue("b", b, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		// The batch's journal sync, a's and b's by path, the journal's reset.
		if got := syncs.Load() - before; got != 4 {
			t.Fatalf("the rotating batch cost %d sync points, want 4", got)
		}
		journalEmpty(t, c)
	})
	t.Run("close", func(t *testing.T) {
		c, _, syncs := journalClosed(t, DefaultMaxJournal)
		before := syncs.Load()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		// a's sync by path, the journal's reset.
		if got := syncs.Load() - before; got != 2 {
			t.Fatalf("Close cost %d sync points, want 2", got)
		}
		journalEmpty(t, c)
	})
}

// TestJournalRecordRoundTrip covers the id-tagged framing helpers.
func TestJournalRecordRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		id      string
		payload string
	}{
		{"s1", `{"idx":1}`},
		{"", "payload-without-id"},
		{"long-session-id-with-dashes", ""},
	} {
		id, payload, err := DecodeJournalRecord(EncodeJournalRecord(tc.id, []byte(tc.payload)))
		if err != nil {
			t.Fatalf("%q: %v", tc.id, err)
		}
		if id != tc.id || string(payload) != tc.payload {
			t.Fatalf("round trip (%q,%q) -> (%q,%q)", tc.id, tc.payload, id, payload)
		}
	}
	if _, _, err := DecodeJournalRecord([]byte{0}); err == nil {
		t.Fatal("short record decoded without error")
	}
	if _, _, err := DecodeJournalRecord([]byte{0, 9, 'x'}); err == nil {
		t.Fatal("overlong id length decoded without error")
	}
}

// openFlushed opens the log name in dir and appends and flushes payload
// to it, as an owner does before staging or enqueueing it.
func openFlushed(t *testing.T, dir, name string, syncs *atomic.Int64, payload []byte) *Log {
	t.Helper()
	l, _, err := Open(filepath.Join(dir, name), Options{NoFsync: true, SyncCounter: syncs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	return l
}

// waitOrHang fails the test if wait does not return: a staged record
// must never keep the next waiter's batch from starting, and neither
// Stage nor Enqueue may block behind a leader's journal fsync.
func waitOrHang(t *testing.T, wait func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second): // hang guard only
		t.Fatal("a call that must not block never returned")
		return nil
	}
}

// leadBlocked enqueues a's record with a committer whose first journal
// sync blocks in the fault hook until the returned release runs (or the
// test ends), then returns once a leader is blocked there, with that
// leader's result channel. The hook fails that sync with fail, and lets
// later ones pass.
func leadBlocked(t *testing.T, c *Committer, a *Log, fail error) (release func(), result <-chan error) {
	t.Helper()
	entered, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(unblock) }) }
	t.Cleanup(release)
	var calls atomic.Int64
	c.syncErr = func() error {
		if calls.Add(1) > 1 {
			return nil
		}
		close(entered)
		<-unblock
		return fail
	}
	wait, err := c.Enqueue("a", a, []byte("a-0"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- wait() }()
	waitOrHang(t, func() error { <-entered; return nil })
	return release, done
}

// TestCommitterJournalSyncOffLock: a leader fsyncs the journal with the
// committer's mutex released, so a Stage and an Enqueue from other
// goroutines return while it is blocked in that fsync. They join the
// next batch, whose journal sync covers both: no log is synced on its
// own, and the journal holds all three records.
func TestCommitterJournalSyncOffLock(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "fleet.journal")
	var jSyncs, logSyncs atomic.Int64
	c, err := OpenCommitter(jpath, 0, Options{NoFsync: true, SyncCounter: &jSyncs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) // runs after the blocked leader is released
	a := openFlushed(t, dir, "a.wal", &logSyncs, []byte("a-0"))
	k := openFlushed(t, dir, "k.wal", &logSyncs, []byte("k-0"))
	b := openFlushed(t, dir, "b.wal", &logSyncs, []byte("b-0"))
	release, leader := leadBlocked(t, c, a, nil)
	var waitB func() error
	if err := waitOrHang(t, func() error {
		if !c.Stage(".k", k, []byte("k-0")) {
			return errors.New("stage refused by a healthy committer")
		}
		var err error
		waitB, err = c.Enqueue("b", b, []byte("b-0"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	release()
	if err := waitOrHang(t, func() error { return <-leader }); err != nil {
		t.Fatal(err)
	}
	if err := waitOrHang(t, waitB); err != nil {
		t.Fatal(err)
	}
	if c.Batches() != 2 || c.DegradedBatches() != 0 || jSyncs.Load() != 2 || logSyncs.Load() != 0 {
		t.Fatalf("%d batches (%d degraded), %d journal and %d log sync points, want 2 (0), 2 and 0",
			c.Batches(), c.DegradedBatches(), jSyncs.Load(), logSyncs.Load())
	}
	got, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got["a"][0]) != "a-0" || string(got[".k"][0]) != "k-0" || string(got["b"][0]) != "b-0" {
		t.Fatalf("journal holds %q, want a's, k's and b's records", got)
	}
}

// TestCommitterRequestDuringFailedSync: a request enqueued while the
// leader's journal fsync is failing went into the handle that failure
// drops, so it counts as never journaled: the next batch, through a
// healthy reopened journal, delivers it through its own log's sync, not
// the journal's.
func TestCommitterRequestDuringFailedSync(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCommitter(filepath.Join(dir, "fleet.journal"), 0, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) // runs after the blocked leader is released
	var aSyncs, bSyncs atomic.Int64
	a := openFlushed(t, dir, "a.wal", &aSyncs, []byte("a-0"))
	b := openFlushed(t, dir, "b.wal", &bSyncs, []byte("b-0"))
	release, leader := leadBlocked(t, c, a, errors.New("injected journal fsync failure"))
	var waitB func() error
	if err := waitOrHang(t, func() (err error) {
		waitB, err = c.Enqueue("b", b, []byte("b-0"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	release()
	if err := waitOrHang(t, func() error { return <-leader }); err != nil {
		t.Fatal(err)
	}
	if err := waitOrHang(t, waitB); err != nil {
		t.Fatal(err)
	}
	if c.Batches() != 2 || c.DegradedBatches() != 1 || aSyncs.Load() != 1 || bSyncs.Load() != 1 {
		t.Fatalf("%d batches (%d degraded), a's log synced %d times, b's %d, want 2 (1), 1 and 1",
			c.Batches(), c.DegradedBatches(), aSyncs.Load(), bSyncs.Load())
	}
}

// TestCommitterStageAloneTriggersNoBatch: staged records have no waiter,
// so none of them leads a batch, and a commit with nothing else pending
// is no batch at all; the first waiter's batch carries them.
func TestCommitterStageAloneTriggersNoBatch(t *testing.T) {
	dir := t.TempDir()
	var syncs atomic.Int64
	c, err := OpenCommitter(filepath.Join(dir, "fleet.journal"), 0, Options{NoFsync: true, SyncCounter: &syncs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l := openFlushed(t, dir, "k.wal", &syncs, []byte("k-0"))
	for i := 0; i < 3; i++ {
		if !c.Stage(".k", l, []byte(fmt.Sprintf("k-%d", i))) {
			t.Fatalf("stage %d refused by a healthy committer", i)
		}
	}
	c.commitBatch()
	if c.Batches() != 0 || syncs.Load() != 0 {
		t.Fatalf("staged records alone committed %d batches with %d sync points, want 0 and 0", c.Batches(), syncs.Load())
	}
	if _, ok := c.dirty[l.Path()]; !ok {
		t.Fatal("a staged log left the rotation set")
	}
	wait, err := c.Enqueue("s", openFlushed(t, dir, "s.wal", &syncs, []byte("s-0")), []byte("s-0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := waitOrHang(t, wait); err != nil {
		t.Fatal(err)
	}
	if c.Batches() != 1 || syncs.Load() != 1 {
		t.Fatalf("the first waiter after staged records committed %d batches with %d sync points, want 1 and 1", c.Batches(), syncs.Load())
	}
}

// TestCommitterStageRidesNextBatch: a staged record joins the next
// waiter's batch, which costs one batch and one sync point — the
// journal's — and leaves both records in the journal in order.
func TestCommitterStageRidesNextBatch(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "fleet.journal")
	var jsyncs, logSyncs atomic.Int64
	c, err := OpenCommitter(jpath, -1, Options{NoFsync: true, SyncCounter: &jsyncs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := openFlushed(t, dir, "k.wal", &logSyncs, []byte("k-0"))
	s := openFlushed(t, dir, "s.wal", &logSyncs, []byte("s-0"))
	if !c.Stage(".k", k, []byte("k-0")) {
		t.Fatal("stage refused by a healthy committer")
	}
	wait, err := c.Enqueue("s", s, []byte("s-0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := waitOrHang(t, wait); err != nil {
		t.Fatal(err)
	}
	if c.Batches() != 1 || jsyncs.Load() != 1 || logSyncs.Load() != 0 {
		t.Fatalf("stage + enqueue: %d batches, %d journal and %d log sync points, want 1, 1 and 0",
			c.Batches(), jsyncs.Load(), logSyncs.Load())
	}
	got, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[".k"][0]) != "k-0" || string(got["s"][0]) != "s-0" {
		t.Fatalf("journal holds %q, want the staged and the enqueued record", got)
	}
}

// TestCommitterStageDegradedSyncsLog: when the journal sync fails, the
// batch fsyncs the staged record's own log as it does each waiter's: the
// waiter's through its open handle, the staged one by path (its owner
// may have closed its handle), counted on the committer's counter.
func TestCommitterStageDegradedSyncsLog(t *testing.T) {
	dir := t.TempDir()
	var jSyncs atomic.Int64
	c, err := OpenCommitter(filepath.Join(dir, "fleet.journal"), -1, Options{NoFsync: true, SyncCounter: &jSyncs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.syncErr = func() error { return errors.New("injected journal fsync failure") }
	var kSyncs, sSyncs atomic.Int64
	k := openFlushed(t, dir, "k.wal", &kSyncs, []byte("k-0"))
	s := openFlushed(t, dir, "s.wal", &sSyncs, []byte("s-0"))
	if !c.Stage(".k", k, []byte("k-0")) {
		t.Fatal("stage refused by a healthy committer")
	}
	wait, err := c.Enqueue("s", s, []byte("s-0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := waitOrHang(t, wait); err != nil {
		t.Fatal(err)
	}
	// The committer's counter holds the staged log's sync by path alone:
	// the retired journal is closed, not synced once more.
	if c.DegradedBatches() != 1 || jSyncs.Load() != 1 || kSyncs.Load() != 0 || sSyncs.Load() != 1 {
		t.Fatalf("degraded batch: %d degraded, %d sync points on the committer's counter, staged log synced %d times through its handle, waiter's %d, want 1, 1, 0 and 1",
			c.DegradedBatches(), jSyncs.Load(), kSyncs.Load(), sSyncs.Load())
	}
}

// TestCommitterStageRefused: with the journal down, or after Close, a
// stage journals nothing and reports false, so its caller syncs its
// log itself.
func TestCommitterStageRefused(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCommitter(filepath.Join(dir, "fleet.journal"), -1, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	k := openFlushed(t, dir, "k.wal", nil, []byte("k-0"))
	c.mu.Lock()
	c.dropJournalLocked()
	c.mu.Unlock()
	if c.Stage(".k", k, []byte("k-0")) {
		t.Fatal("stage accepted while the journal is down")
	}
	if _, ok := c.dirty[k.Path()]; ok {
		t.Fatal("a refused stage put its log in the rotation set")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Stage(".k", k, []byte("k-0")) {
		t.Fatal("stage accepted after Close")
	}
}
