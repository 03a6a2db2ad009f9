package durable

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the error every injected fault carries (wrapped with
// the operation that hit it). Tests assert on it with errors.Is.
var ErrInjected = errors.New("durable: injected fault")

// Fault is the kind of failure a FaultFS injects at its armed
// operation.
type Fault int

const (
	// FaultError makes the armed operation fail cleanly with
	// ErrInjected; subsequent operations succeed. Models a transient or
	// persistent I/O error (disk full, EIO) the process survives.
	FaultError Fault = iota
	// FaultShortWrite makes the armed operation — if it is a Write —
	// persist only the first half of its buffer before failing;
	// subsequent operations succeed. Models a torn append. On non-Write
	// operations it behaves like FaultError.
	FaultShortWrite
	// FaultCrash makes the armed operation and every operation after it
	// fail with ErrInjected, reads included. Models the process dying
	// at exactly that point: whatever reached the wrapped FS before the
	// crash is the disk state recovery will see.
	FaultCrash
)

func (f Fault) String() string {
	switch f {
	case FaultError:
		return "error"
	case FaultShortWrite:
		return "short-write"
	case FaultCrash:
		return "crash"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// FaultFS wraps an FS and injects one configured fault at the N-th
// write-path operation (1-based), counting MkdirAll, Create,
// OpenAppend, Write, Sync, Rename, Remove, RemoveAll and SyncDir
// calls. With no fault armed it is a transparent
// operation-counting wrapper, which is how the kill-point sweep first
// measures how many kill points a scenario has. Safe for concurrent
// use.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	ops     int // write-path operations performed so far
	armAt   int // 1-based op index to inject at; 0 = disarmed
	kind    Fault
	crashed bool
	faults  int // injections delivered
}

// NewFaultFS returns a transparent counting wrapper over inner. Arm a
// fault with Arm or ArmAfter.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner}
}

// Arm schedules fault kind at absolute write-op index n (1-based).
func (f *FaultFS) Arm(n int, kind Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armAt, f.kind = n, kind
}

// ArmAfter schedules fault kind delta write-ops from now (1 = the very
// next write-path operation).
func (f *FaultFS) ArmAfter(delta int, kind Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armAt, f.kind = f.ops+delta, kind
}

// Ops returns the number of write-path operations performed.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Faults returns the number of injections delivered.
func (f *FaultFS) Faults() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// Crashed reports whether a FaultCrash has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step accounts one write-path operation named op and reports the fault
// to deliver, if any.
func (f *FaultFS) step(op string) (inject bool, kind Fault, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		f.faults++
		return true, FaultCrash, fmt.Errorf("%w: %s after crash", ErrInjected, op)
	}
	f.ops++
	if f.armAt != 0 && f.ops == f.armAt {
		f.faults++
		if f.kind == FaultCrash {
			f.crashed = true
		}
		return true, f.kind, fmt.Errorf("%w: %s at op %d (%s)", ErrInjected, op, f.ops, f.kind)
	}
	return false, 0, nil
}

// readGate fails reads only after a crash (a dead process cannot read
// either); it does not count them as write ops.
func (f *FaultFS) readGate(op string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return fmt.Errorf("%w: %s after crash", ErrInjected, op)
	}
	return nil
}

func (f *FaultFS) MkdirAll(dir string) error {
	if inject, _, err := f.step("MkdirAll"); inject {
		return err
	}
	return f.inner.MkdirAll(dir)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if err := f.readGate("ReadDir"); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

func (f *FaultFS) Size(path string) (int64, error) {
	if err := f.readGate("Size"); err != nil {
		return 0, err
	}
	return f.inner.Size(path)
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if err := f.readGate("ReadFile"); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

func (f *FaultFS) Create(path string) (File, error) {
	if inject, _, err := f.step("Create"); inject {
		return nil, err
	}
	file, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file, path: path}, nil
}

func (f *FaultFS) OpenAppend(path string, trunc bool) (File, error) {
	if inject, _, err := f.step("OpenAppend"); inject {
		return nil, err
	}
	file, err := f.inner.OpenAppend(path, trunc)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file, path: path}, nil
}

func (f *FaultFS) Rename(oldPath, newPath string) error {
	if inject, _, err := f.step("Rename"); inject {
		return err
	}
	return f.inner.Rename(oldPath, newPath)
}

func (f *FaultFS) Remove(path string) error {
	if inject, _, err := f.step("Remove"); inject {
		return err
	}
	return f.inner.Remove(path)
}

func (f *FaultFS) RemoveAll(path string) error {
	if inject, _, err := f.step("RemoveAll"); inject {
		return err
	}
	return f.inner.RemoveAll(path)
}

func (f *FaultFS) SyncDir(dir string) error {
	if inject, _, err := f.step("SyncDir"); inject {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile threads Write/Sync through the wrapper's op counter; Close
// is not counted (closing cannot lose persisted bytes) but does fail
// after a crash.
type faultFile struct {
	fs    *FaultFS
	inner File
	path  string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	inject, kind, err := ff.fs.step("Write " + ff.path)
	if inject {
		if kind == FaultShortWrite {
			// Half the buffer reaches the disk before the failure: the
			// torn-record case recovery must truncate away.
			n, werr := ff.inner.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	if inject, _, err := ff.fs.step("Sync " + ff.path); inject {
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error {
	if err := ff.fs.readGate("Close " + ff.path); err != nil {
		return err
	}
	return ff.inner.Close()
}
