// Committer is the fleet-wide group-commit pipeline: per-session log
// appends share one journal fsync per batch instead of paying one fsync
// per session per operation. It runs no goroutine of its own; the
// callers waiting on a batch commit it.
//
// Protocol. Each operation (holding its session's op gate) appends its
// record to the session log, flushes the log's buffer to the OS (write,
// no fsync) and enqueues the same payload with the committer, which
// copies it into a shared journal file. The operation then waits:
// either its result arrives, or it takes the one-slot lead token and,
// as leader, flushes the journal and fsyncs it ONCE for every request
// pending at that moment — every waiter in the batch is then durable
// (its record lives in the fsynced journal even if its own log's bytes
// are still only in the OS page cache) and is released with a nil
// error. The fsync runs off the committer's mutex, so requests arriving
// meanwhile join the next batch. The leader delivers every result
// before it hands the token back, so the next leader's own request is
// either delivered or still pending. A record no operation waits on is
// Staged: journaled alike, it never leads a batch and rides the next
// one. The committer alone owns the sync debt of what it journals: a
// Log's Close never syncs, and the committer syncs the logs by path.
//
// Degradation. If the journal cannot be written or synced, the batch
// falls back to per-log fsyncs so that exactly the waiters whose OWN
// log fails get the error — durability honesty is preserved, the
// shared-fsync optimization is what degrades. A waiter's log is synced
// through its handle, which its owner keeps open while it waits; a
// staged record's log is synced by path. The journal is reopened on the
// next batch; a crash loses nothing because the journal file's intact
// prefix survives (CRC framing, torn tail truncated on open). Requests
// journaled into a dropped handle count as never journaled.
//
// Rotation. The journal grows until MaxJournal, then the leader
// fsyncs every log whose durability still leans on the journal and
// truncates it. It syncs each log by path, through a descriptor of its
// own, so a log whose owner has closed it (an evicted session, a
// dropped tail) is synced like any other and does not wait for its
// compaction. Compaction makes a session's journal records obsolete
// earlier (the fsynced base snapshot supersedes them), and so does
// deleting the log — the owner calls Forget so rotation skips it.
//
// Recovery. Journal records carry (session id, payload); at boot the
// owner replays them into the per-session logs (ReadJournal + the
// owner's patching pass) and truncates the journal, so steady-state
// recovery never consults it.
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxJournal is the journal size that triggers rotation.
const DefaultMaxJournal = 4 << 20

// ErrCommitterClosed rejects enqueues after Close.
var ErrCommitterClosed = errors.New("wal: committer closed")

// errNoJournal marks a batch whose records never reached the journal.
var errNoJournal = errors.New("wal: journal unavailable")

// CommitterOptions configures a Committer. A zero MaxJournal takes
// DefaultMaxJournal.
type CommitterOptions struct {
	// Interval is the batch window: how long a leader sleeps before it
	// commits, so that more waiters join its batch. ≤ 0 is no window:
	// the leader commits at once.
	Interval time.Duration
	// MaxJournal is the journal size that triggers rotation.
	MaxJournal int64
	// NoFsync and SyncCounter apply to the journal file exactly as
	// Options do to a Log (syncs are counted even under NoFsync).
	NoFsync     bool
	SyncCounter *atomic.Int64
}

// logOptions are the Options the journal opens with and logs are
// synced by path with.
func (o CommitterOptions) logOptions() Options {
	return Options{NoFsync: o.NoFsync, SyncCounter: o.SyncCounter}
}

func (o CommitterOptions) maxJournal() int64 {
	if o.MaxJournal <= 0 {
		return DefaultMaxJournal
	}
	return o.MaxJournal
}

// commitReq is one enqueued operation waiting for durability, or a
// staged record no caller waits on (log and done are nil).
type commitReq struct {
	log  *Log   // the waiter's open handle
	path string // the staged record's log
	// journaled reports that the request's payload reached the journal
	// buffer; only then can the shared fsync stand in for the request's
	// own log fsync.
	journaled bool
	done      chan error
}

// Committer is the shared group-commit pipeline. Safe for concurrent
// Enqueue from many sessions; whoever holds lead commits the batch.
type Committer struct {
	opts CommitterOptions
	lead chan struct{} // the one-slot lead token: a send takes it

	mu      sync.Mutex
	journal *Log // nil while unusable; reopened on the next batch
	jpath   string
	reqs    []commitReq
	waiting int // requests in reqs with a waiter; staged ones alone are no batch
	// dirty is the set of log paths whose flushed records may have no
	// durable copy outside the journal. Rotation must fsync them before
	// truncating the journal.
	dirty  map[string]struct{}
	closed bool

	batches         atomic.Int64
	degradedBatches atomic.Int64

	// syncErr, when non-nil, is consulted before each journal fsync —
	// the fault-injection seam for the race hammer tests.
	syncErr func() error
}

// OpenCommitter opens (creating if missing) the journal at path.
// Existing intact journal records are preserved — the owner is expected
// to have drained them through ReadJournal before serving.
func OpenCommitter(path string, opts CommitterOptions) (*Committer, error) {
	j, _, err := Open(path, opts.logOptions())
	if err != nil {
		return nil, err
	}
	return &Committer{
		opts:    opts,
		lead:    make(chan struct{}, 1),
		journal: j,
		jpath:   path,
		dirty:   map[string]struct{}{},
	}, nil
}

// Enqueue registers one operation's freshly appended (and flushed)
// record for the next batch commit and returns a wait function that
// blocks until the batch is durable — leading it if no other caller
// does — yielding the fsync error exactly as a direct Log.Commit would.
// The payload is copied into the journal buffer before Enqueue returns,
// so callers may recycle it immediately; l must not be Reset or Closed
// until wait returns.
func (c *Committer) Enqueue(id string, l *Log, payload []byte) (wait func() error, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrCommitterClosed
	}
	done := make(chan error, 1)
	journaled := c.journalLocked(id, payload)
	c.dirty[l.Path()] = struct{}{}
	c.reqs = append(c.reqs, commitReq{log: l, journaled: journaled, done: done})
	c.waiting++
	return func() error { return c.wait(done) }, nil
}

// journalLocked appends one record to the journal buffer and reports
// whether it got there. A failed append leaves the buffer in an unknown
// state: the handle is retired (the file's intact prefix is preserved),
// and the pending batch falls back to per-log fsyncs.
func (c *Committer) journalLocked(id string, payload []byte) bool {
	if c.journal == nil {
		return false
	}
	if err := c.journal.Append(EncodeJournalRecord(id, payload)); err != nil {
		c.dropJournalLocked()
		return false
	}
	return true
}

// wait returns the result delivered on done, committing the pending
// batch itself if it takes the lead token first; a leader sleeps out the
// batch window (none when Interval ≤ 0) before it commits. A leader's
// request is still pending unless the previous leader delivered it
// before handing the token back, so its batch always includes it.
func (c *Committer) wait(done chan error) error {
	select {
	case err := <-done:
		return err
	case c.lead <- struct{}{}:
	}
	if len(done) == 0 {
		time.Sleep(c.opts.Interval)
		c.commitBatch()
	}
	<-c.lead
	return <-done
}

// Stage journals one record already flushed to l without waiting for
// it: it joins the pending batch but never leads one, so the next
// Enqueue's batch fsync makes it durable, and a degraded batch fsyncs
// l's file by path instead. It reports false, journaling nothing, when
// the journal is down or the committer closed; the record then has no
// durable copy, and the caller must make one another way.
func (c *Committer) Stage(id string, l *Log, payload []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || !c.journalLocked(id, payload) {
		return false
	}
	c.dirty[l.Path()] = struct{}{}
	c.reqs = append(c.reqs, commitReq{path: l.Path(), journaled: true})
	return true
}

// Forget drops the log at path from the rotation set: its records in
// the journal are superseded (by a freshly fsynced base snapshot after
// compaction) or moot (the log was deleted), so rotation no longer
// needs to fsync it.
func (c *Committer) Forget(path string) {
	c.mu.Lock()
	delete(c.dirty, path)
	c.mu.Unlock()
}

// Batches returns how many batch commits have run.
func (c *Committer) Batches() int64 { return c.batches.Load() }

// DegradedBatches returns how many batches fell back to per-log fsyncs
// because the journal was unavailable.
func (c *Committer) DegradedBatches() int64 { return c.degradedBatches.Load() }

// Close commits any pending batch, fsyncs the logs still leaning on the
// journal by path and truncates the journal if every one of them synced
// (so the next boot recovers nothing); otherwise it commits the journal,
// whose staged records may have had no batch. It takes the lead token
// and keeps it, so no batch runs after Close's own. The fsyncs run off
// c.mu on a snapshot of the rotation set; the logs' owners may have
// closed them already. Enqueues after Close fail with
// ErrCommitterClosed.
func (c *Committer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.lead <- struct{}{}
	c.commitBatch() // release any waiters that raced Close
	c.mu.Lock()
	dirty := maps.Clone(c.dirty)
	c.mu.Unlock()
	var err error
	for path := range dirty {
		if serr := syncPath(path, c.opts.logOptions()); serr != nil {
			err = cmp.Or(err, serr)
			continue
		}
		c.Forget(path)
	}
	j := c.journal // closed, with the lead token held: nothing else touches it
	if j == nil {
		return err
	}
	commit := j.Commit
	if err == nil { // every log synced
		commit = j.Reset
	}
	return cmp.Or(err, commit(), j.Close())
}

// commitBatch makes the current batch durable: one journal fsync for
// every journaled request, per-log fsyncs for the rest (and for the
// whole batch when the journal sync itself fails — in which case each
// waiter gets ITS OWN log's fsync result, attributing the failure to
// exactly the affected sessions). Staged records alone are no batch.
// The journal fsync runs off c.mu; only a lead holder replaces the
// handle, so the one flushed is the one synced.
func (c *Committer) commitBatch() {
	c.mu.Lock()
	if c.waiting == 0 {
		c.mu.Unlock()
		return
	}
	reqs := c.reqs
	c.reqs, c.waiting = nil, 0
	c.batches.Add(1)
	j, jerr := c.journal, errNoJournal
	if j != nil {
		jerr = j.Flush()
	}
	c.mu.Unlock()
	if jerr == nil && c.syncErr != nil {
		jerr = c.syncErr()
	}
	if jerr == nil {
		jerr = j.SyncFile()
	}
	c.mu.Lock()
	if jerr == nil {
		c.maybeRotateLocked()
	} else {
		c.dropJournalLocked()
		c.degradedBatches.Add(1)
		c.reopenJournalLocked()
	}
	c.mu.Unlock()

	// Deliver outside the lock: per-log fsyncs can be slow. A waiter's
	// log owner is parked in wait; a staged log's may append to it or
	// close it meanwhile, so that log is synced by path.
	for _, r := range reqs {
		switch {
		case r.journaled && jerr == nil:
			if r.done != nil {
				r.done <- nil
			}
		case r.done != nil:
			r.done <- r.log.SyncFile()
		default: // staged: nobody waits, and its path stays in the rotation set
			syncPath(r.path, c.opts.logOptions())
		}
	}
}

// maybeRotateLocked truncates an oversized journal once every log
// leaning on it has been fsynced by path. Partial progress sticks: logs
// synced before a failure leave the rotation set, so the next attempt
// is smaller.
func (c *Committer) maybeRotateLocked() {
	if c.journal == nil || c.journal.Size() < c.opts.maxJournal() {
		return
	}
	for path := range c.dirty {
		if syncPath(path, c.opts.logOptions()) == nil {
			delete(c.dirty, path)
		}
	}
	if len(c.dirty) > 0 {
		return
	}
	if err := c.journal.Reset(); err != nil {
		c.dropJournalLocked()
	}
}

// dropJournalLocked retires the journal handle after an error left its
// state unknown, closing it without a sync. Every request still pending
// counts as not journaled, since its copy went with the handle; the
// next batch syncs its own log instead. The file keeps its intact
// prefix — recovery and the reopen path scan it with the usual
// torn-tail tolerance.
func (c *Committer) dropJournalLocked() {
	if c.journal == nil {
		return
	}
	c.journal.Close()
	c.journal = nil
	for i := range c.reqs {
		c.reqs[i].journaled = false
	}
}

// reopenJournalLocked tries to bring a dropped journal back. Records
// enqueued while the journal was down were made durable per-log, so
// reopening mid-stream is safe: the scan positions appends after the
// intact prefix.
func (c *Committer) reopenJournalLocked() {
	if c.journal != nil || c.closed {
		return
	}
	j, _, err := Open(c.jpath, c.opts.logOptions())
	if err != nil {
		return // stay degraded; the next batch retries
	}
	c.journal = j
}

// Journal record framing: the journal reuses Log's length+CRC frames;
// inside each frame the payload is [uint16 BE id length][id][payload].

// EncodeJournalRecord wraps one session's record payload with its id
// for the shared journal.
func EncodeJournalRecord(id string, payload []byte) []byte {
	out := make([]byte, 2+len(id)+len(payload))
	binary.BigEndian.PutUint16(out[0:2], uint16(len(id)))
	copy(out[2:], id)
	copy(out[2+len(id):], payload)
	return out
}

// DecodeJournalRecord splits a journal frame payload back into session
// id and record payload.
func DecodeJournalRecord(rec []byte) (id string, payload []byte, err error) {
	if len(rec) < 2 {
		return "", nil, fmt.Errorf("wal: journal record too short (%d bytes)", len(rec))
	}
	n := int(binary.BigEndian.Uint16(rec[0:2]))
	if len(rec) < 2+n {
		return "", nil, fmt.Errorf("wal: journal record id length %d exceeds record", n)
	}
	return string(rec[2 : 2+n]), rec[2+n:], nil
}

// ReadJournal reads every intact journal record at path (a missing file
// is an empty journal) grouped by session id, preserving per-session
// order. Boot uses it to patch records whose only durable copy was the
// journal back into their session logs before serving.
func ReadJournal(path string) (map[string][][]byte, error) {
	recs, err := readIntact(path)
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	out := map[string][][]byte{}
	for i, rec := range recs {
		id, payload, err := DecodeJournalRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("wal: journal record %d: %w", i, err)
		}
		out[id] = append(out[id], payload)
	}
	return out, nil
}
