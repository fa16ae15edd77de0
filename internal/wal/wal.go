// Package wal implements the per-session append-only write-ahead log
// behind tune.Manager's checkpointing: length+CRC-framed records, group
// commit (buffered appends flushed and fsynced once per Commit), and
// truncated-tail tolerance on open — a crash mid-append loses at most
// the torn tail record, never the intact prefix. A Log keeps no sync
// bookkeeping: Commit always syncs, Close never does, and a Committer
// owns the sync debt of records it journals.
//
// Framing: every record is [payload length: uint32 BE][CRC32-IEEE of
// payload: uint32 BE][payload]. The format carries no file header, so a
// zero-length file is a valid empty log and Reset (used by snapshot
// compaction) is a plain truncate.
package wal

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
)

// headerSize is the per-record framing overhead in bytes.
const headerSize = 8

// MaxRecord bounds a single record's payload. A length field beyond it
// is treated as corruption (the scan stops there), so a torn header
// cannot make the reader allocate gigabytes.
const MaxRecord = 64 << 20

// ErrTooLarge rejects appends beyond MaxRecord.
var ErrTooLarge = errors.New("wal: record exceeds MaxRecord")

// Options configures a Log.
type Options struct {
	// NoFsync skips the fsync in Commit (and after Reset). Appends are
	// still flushed to the OS, but a power failure may lose committed
	// records — acceptable for benchmarks and tests, not for serving.
	NoFsync bool
	// SyncCounter, when non-nil, is incremented once per logical sync
	// point (Commit, SyncFile, Reset). It counts even under NoFsync —
	// the counter measures how many fsyncs the durability protocol
	// ISSUES, so benchmarks can compare commit strategies without
	// paying for real disk flushes.
	SyncCounter *atomic.Int64
}

// Log is an open append-only log positioned at its intact end.
// Not safe for concurrent use; callers serialize (tune.Manager holds
// the session's op gate across Append/Commit).
type Log struct {
	f     *os.File
	w     *bufio.Writer
	path  string
	opts  Options
	count int   // records in the intact log, including uncommitted appends
	size  int64 // bytes in the intact log, including uncommitted appends
	// truncated is how many trailing bytes Open discarded as a torn or
	// corrupt tail (0 for a clean log).
	truncated int64
}

// Open opens (creating if missing) the log at path, reads every intact
// record, truncates any torn or corrupt tail, and returns the log
// positioned for appending together with the recovered record payloads.
func Open(path string, opts Options) (*Log, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, good, total, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: scanning %s: %w", path, err)
	}
	l := &Log{
		f: f, path: path, opts: opts,
		count: len(recs), size: good, truncated: total - good,
	}
	if l.truncated > 0 {
		// A crash mid-append (or trailing garbage) left a torn tail:
		// drop it so the next append starts a clean frame.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	l.w = bufio.NewWriter(f)
	return l, recs, nil
}

// scan reads records from the start of f, stopping at the first torn or
// corrupt frame. It returns the payloads, the offset of the intact
// prefix, and the total file size. Only I/O errors are returned;
// corruption is reported through good < total.
func scan(f *os.File) (recs [][]byte, good, total int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, 0, err
	}
	total = st.Size()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, 0, err
	}
	r := bufio.NewReader(f)
	var hdr [headerSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// Clean EOF at a frame boundary or a torn header: the intact
			// prefix ends at good either way.
			return recs, good, total, nil
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if n > MaxRecord || good+headerSize+int64(n) > total {
			return recs, good, total, nil // corrupt length or frame past EOF
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, good, total, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, good, total, nil // corrupt payload
		}
		recs = append(recs, payload)
		good += headerSize + int64(n)
	}
}

// Append frames the payload into the write buffer. The record is not
// durable (and on crash may not even be visible) until Commit.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("%w (%d bytes)", ErrTooLarge, len(payload))
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		return err
	}
	l.count++
	l.size += headerSize + int64(len(payload))
	return nil
}

// Commit flushes every buffered append in one write and fsyncs once,
// whether or not anything was appended since the last sync.
func (l *Log) Commit() error {
	if err := l.Flush(); err != nil {
		return err
	}
	return l.syncNow()
}

// Flush writes every buffered append to the OS without fsyncing. The
// records become visible to readers of the file (same-process
// re-hydration after an eviction reads them back) and survive the
// process being killed, but are not durable against power failure until
// a sync covers them — the log's own Commit/SyncFile or a Committer's
// journal fsync. Callers funneling appends into a shared Committer
// flush BEFORE enqueueing, so the committer's rotation fsync covers
// everything enqueued so far.
func (l *Log) Flush() error {
	return l.w.Flush()
}

// SyncFile fsyncs the log's file descriptor without touching the write
// buffer: how the shared Committer syncs its journal, and a waiting
// owner's flushed-but-unsynced log in a degraded (journal-less) batch.
// It reads nothing Append writes, so it may run while another goroutine
// appends to the log.
func (l *Log) SyncFile() error {
	return l.syncNow()
}

// syncNow issues (and counts) one fsync, honoring NoFsync.
func (l *Log) syncNow() error {
	if l.opts.SyncCounter != nil {
		l.opts.SyncCounter.Add(1)
	}
	if l.opts.NoFsync {
		return nil
	}
	return l.f.Sync()
}

// syncPath fsyncs the file at path through a descriptor of its own,
// counting the sync point and honoring NoFsync as a Log's own syncs do.
// It needs no open Log, so it also syncs a file whose owner closed its
// handle.
func syncPath(path string, opts Options) error {
	if opts.SyncCounter != nil {
		opts.SyncCounter.Add(1)
	}
	if opts.NoFsync {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Reset empties the log (after compaction folded its records into a
// base snapshot). The caller must have made the base snapshot durable
// first: a reset that outlives an unpersisted base loses events,
// whereas a crash between base write and Reset merely leaves stale
// records that recovery skips by index.
func (l *Log) Reset() error {
	// Discard buffered appends, then truncate the file.
	l.w.Reset(io.Discard)
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := l.syncNow(); err != nil {
		return err
	}
	l.w.Reset(l.f)
	l.count, l.size = 0, 0
	return nil
}

// Count returns the number of records in the log, including appends not
// yet committed.
func (l *Log) Count() int { return l.count }

// Size returns the log's size in bytes, including appends not yet
// committed.
func (l *Log) Size() int64 { return l.size }

// Truncated reports how many trailing bytes Open discarded as torn.
func (l *Log) Truncated() int64 { return l.truncated }

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close flushes buffered appends to the OS and closes the file without
// syncing it: what Commit has not synced stays the debt of whoever
// journaled it, or of the owner's next Commit after reopening.
func (l *Log) Close() error {
	return cmp.Or(l.Flush(), l.f.Close())
}

// Stat inspects the log at path without opening it for writing and
// returns the intact record count and the last intact record's payload:
// exactly what Open would recover, since both run scan. A missing file
// is an empty log. Used by tune.Manager's boot scan to summarize evicted
// sessions without hydrating them.
func Stat(path string) (count int, last []byte, err error) {
	recs, err := readIntact(path)
	if len(recs) == 0 {
		return 0, nil, err
	}
	return len(recs), recs[len(recs)-1], nil
}

// readIntact scans the log at path through a read-only descriptor and
// returns its intact records, leaving any torn tail on disk. A missing
// file is an empty log.
func readIntact(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, _, _, err := scan(f)
	return recs, err
}
