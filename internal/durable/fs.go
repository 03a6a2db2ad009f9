package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem seam every durable-layer write and read goes
// through. Production uses OS (the os-package passthrough below); the
// fault-injection harness (FaultFS) wraps any FS and injects errors,
// short writes, or a crash at the N-th write-path operation, which is
// how the kill-point sweep proves recovery correct at every point a
// real process could die.
//
// The interface is deliberately small — exactly the operations the
// snapshot/WAL protocols need — so a fault implementation can reason
// about every path.
type FS interface {
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string) error
	// ReadDir lists the names of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	// Size returns the byte size of the file at path.
	Size(path string) (int64, error)
	// ReadFile reads the whole file at path.
	ReadFile(path string) ([]byte, error)
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// OpenAppend opens path for appending, creating it if absent and
	// truncating it first when trunc is set.
	OpenAppend(path string, trunc bool) (File, error)
	// Rename atomically replaces newPath with oldPath.
	Rename(oldPath, newPath string) error
	// Remove deletes the file at path.
	Remove(path string) error
	// RemoveAll deletes path and everything beneath it.
	RemoveAll(path string) error
	// SyncDir fsyncs the directory entry table at dir, making renames
	// and creations within it durable.
	SyncDir(dir string) error
}

// File is an open writable file handle.
type File interface {
	io.Writer
	// Sync flushes written data to stable storage.
	Sync() error
	// Close releases the handle (without an implicit Sync).
	Close() error
}

// OS is the production FS: a direct passthrough to the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Size(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) OpenAppend(path string, trunc bool) (File, error) {
	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if trunc {
		flags |= os.O_TRUNC
	}
	return os.OpenFile(path, flags, 0o644)
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) RemoveAll(path string) error          { return os.RemoveAll(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileAtomic writes data to path through fs with the
// crash-consistent dance: write to a sibling temp file, fsync it, rename
// over the destination, fsync the directory. A crash at any point leaves
// either the old file or the new one — never a torn mix.
func writeFileAtomic(fs FS, path string, data []byte) error {
	tmp := path + tmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: closing %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: renaming %s: %w", tmp, err)
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("durable: syncing dir of %s: %w", path, err)
	}
	return nil
}
