package wal

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestWriteAtomicTempName watches the directory through inotify while
// WriteAtomic runs: the one file it creates is its temp, named
// ".<prefix>-…" beside the target, which is the name a boot sweep of
// dot-prefixed files removes after a crash.
func TestWriteAtomicTempName(t *testing.T) {
	dir := t.TempDir()
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		t.Skipf("inotify unavailable: %v", err)
	}
	defer syscall.Close(fd)
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_CREATE); err != nil {
		t.Skipf("inotify unavailable: %v", err)
	}
	if err := WriteAtomic(filepath.Join(dir, "x.base.json"), "x", []byte("data"), Options{NoFsync: true}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := syscall.Read(fd, buf)
	if err != nil {
		t.Fatal(err)
	}
	var created []string
	for off := 0; off+syscall.SizeofInotifyEvent <= n; {
		// struct inotify_event: wd, mask, cookie, len, then len bytes of
		// NUL-padded name.
		size := int(binary.NativeEndian.Uint32(buf[off+12:]))
		name := buf[off+syscall.SizeofInotifyEvent : off+syscall.SizeofInotifyEvent+size]
		created = append(created, string(bytes.TrimRight(name, "\x00")))
		off += syscall.SizeofInotifyEvent + size
	}
	if len(created) != 1 || !strings.HasPrefix(created[0], ".x-") {
		t.Fatalf("WriteAtomic created %q in the directory, want one temp named .x-…", created)
	}
}
