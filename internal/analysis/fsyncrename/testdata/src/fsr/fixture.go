// Package fsr is a golden fixture for the fsyncrename analyzer: the
// tmp, then fsync, then rename crash-ordering contract and the
// no-discarded-fsync-error rule.
package fsr

import "os"

// Publishing without any sync in the function: a crash can expose
// torn contents.
func renameWithoutSync(tmp, dst string) error {
	return os.Rename(tmp, dst) // want `os.Rename without a preceding Sync`
}

// The correct protocol: write the temp file, fsync it, close, rename.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// A sync inside a nested function literal runs at another time and
// does not dominate the rename.
func syncInClosure(f *os.File, tmp, dst string) error {
	flush := func() error { return f.Sync() }
	_ = flush
	return os.Rename(tmp, dst) // want `os.Rename without a preceding Sync`
}

// A function literal is checked as a function of its own: its rename
// needs a sync inside it.
func renameLater(tmp, dst string) func() error {
	return func() error {
		return os.Rename(tmp, dst) // want `os.Rename without a preceding Sync`
	}
}

// Discarding an fsync error — bare statement or blank assignment — is
// durability theater.
func discardedSync(f *os.File) {
	f.Sync() // want `Sync error discarded`
}

func blankSync(f *os.File) {
	_ = f.Sync() // want `Sync error discarded`
}

// A repo-style durable-flush entry point counts as a sync by name.
type walLog struct{ f *os.File }

func (l *walLog) Commit() error { return l.f.Sync() }

func discardedCommit(l *walLog) error {
	l.Commit() // want `Commit error discarded`
	return os.Rename("a", "b")
}

func checkedCommit(l *walLog) error {
	if err := l.Commit(); err != nil {
		return err
	}
	return os.Rename("a", "b")
}
