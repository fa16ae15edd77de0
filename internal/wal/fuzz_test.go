package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fuzzFrame encodes one valid record frame: [len u32 BE][CRC32-IEEE
// u32 BE][payload] — the same layout Append writes.
func fuzzFrame(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[headerSize:], payload)
	return buf
}

// FuzzOpenRecovery feeds arbitrary bytes to Open as a pre-existing log
// file. Whatever the corruption — torn header, torn payload, CRC
// mismatch, oversized length, trailing garbage — Open must not panic,
// must partition the input exactly into an intact prefix plus a
// discarded tail, and must leave the log appendable: new records commit
// and a reopen recovers the old prefix plus the new record.
func FuzzOpenRecovery(f *testing.F) {
	a := fuzzFrame([]byte("alpha"))
	b := fuzzFrame([]byte(`{"kind":"report","seq":2}`))
	two := append(append([]byte{}, a...), b...)
	f.Add([]byte{})
	f.Add(append([]byte{}, a...))
	f.Add(two)
	f.Add(append(append([]byte{}, a...), b[:headerSize+3]...)) // torn payload
	f.Add(a[:4])                                               // torn header
	corrupt := append([]byte{}, a...)
	corrupt[len(corrupt)-1] ^= 0xff // CRC mismatch
	f.Add(corrupt)
	f.Add(append(append([]byte{}, corrupt...), b...)) // intact frame after a corrupt one
	huge := make([]byte, headerSize)
	binary.BigEndian.PutUint32(huge[0:4], MaxRecord+1) // length field past the cap
	f.Add(huge)
	f.Add(append(append([]byte{}, b...), []byte("trailing garbage")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Stat reads the raw input before Open truncates anything, and
		// must summarize exactly what Open then recovers.
		rawN, rawLast, err := Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path, Options{NoFsync: true})
		if err != nil {
			return // an I/O-level error is acceptable; a panic is the bug
		}
		var wantLast []byte
		if len(recs) > 0 {
			wantLast = recs[len(recs)-1]
		}
		if rawN != len(recs) || !bytes.Equal(rawLast, wantLast) {
			t.Fatalf("Stat on the raw input (%d, %q) disagrees with Open (%d, %q)", rawN, rawLast, len(recs), wantLast)
		}
		if l.Size()+l.Truncated() != int64(len(data)) {
			t.Fatalf("intact prefix %d + discarded tail %d != input %d", l.Size(), l.Truncated(), len(data))
		}
		if l.Count() != len(recs) {
			t.Fatalf("Count %d != %d recovered records", l.Count(), len(recs))
		}
		var sum int64
		for _, r := range recs {
			sum += headerSize + int64(len(r))
		}
		if sum != l.Size() {
			t.Fatalf("recovered frames span %d bytes, Size reports %d", sum, l.Size())
		}

		// Recovery must leave the log appendable: the torn tail was
		// truncated, so a fresh record lands on a clean frame boundary.
		post := []byte("post-recovery")
		if err := l.Append(post); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, recs2, err := Open(path, Options{NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if len(recs2) != len(recs)+1 {
			t.Fatalf("reopen recovered %d records, want %d", len(recs2), len(recs)+1)
		}
		for i := range recs {
			if !bytes.Equal(recs2[i], recs[i]) {
				t.Fatalf("record %d changed across append+reopen", i)
			}
		}
		if !bytes.Equal(recs2[len(recs2)-1], post) {
			t.Fatalf("appended record corrupted: %q", recs2[len(recs2)-1])
		}
		n, last, err := Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(recs2) || !bytes.Equal(last, post) {
			t.Fatalf("Stat (%d, %q) disagrees with reopen (%d, %q)", n, last, len(recs2), post)
		}
	})
}
