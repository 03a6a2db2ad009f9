// Package durable is the per-session persistence layer of the serving
// stack: each graph session owns an on-disk directory holding a
// checksummed binary edge-list snapshot plus an append-only mutation
// WAL, so uploaded graphs and every applied edit batch survive a
// process restart.
//
// # Data layout
//
// Under the manager's root directory, one subdirectory per session id
// (session ids are filename-safe by store construction):
//
//	<root>/<id>/snapshot.bcs       current snapshot (atomic: tmp+fsync+rename)
//	<root>/<id>/wal.bcl            append-only mutation log
//	<root>/<id>/wal.bcl.prev      previous log, mid-compaction only
//	<root>/<id>/*.tmp             transient; removed on recovery
//
// The snapshot file is magic + length-prefixed payload + CRC32C, with
// the payload encoded by graph.AppendBinary (canonical bytes, version
// stamp included). Each WAL record frames one ApplyEdits batch as
// length + CRC32C + payload, where the payload carries the pre- and
// post-mutation graph versions — replay is therefore exactly-once and
// version-continuous: a record whose post-version the snapshot already
// includes is skipped, a record that does not continue the current
// version ends replay.
//
// # Recovery
//
// Recover loads the snapshot, replays wal.bcl.prev (a compaction that
// died mid-flight) then wal.bcl, tolerating a torn or corrupt tail by
// truncating at the last valid record — a crashed writer never prevents
// boot. After any non-trivial replay the state is re-canonicalized:
// a fresh snapshot at the recovered version, an empty WAL.
//
// # Fsync policy
//
// WAL appends honor a configurable policy: FsyncAlways syncs every
// record before acknowledging (a crashed-but-acked mutation is never
// lost), FsyncInterval group-commits at a timer interval (bounded loss
// window, near-zero per-append cost), FsyncNever leaves flushing to the
// OS. Snapshot writes always sync regardless of policy — they are rare
// and losing one corrupts nothing but wastes the WAL tail that built
// it.
//
// Every filesystem touch goes through the FS seam, so the
// fault-injection FaultFS can drive the kill-point sweep in the tests:
// crash at every write-path operation, recover, and require the
// recovered graph (and therefore every seeded estimate on it) to be
// bit-identical to a never-crashed lineage prefix.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bcmh/internal/graph"
)

const (
	snapshotName = "snapshot.bcs"
	walName      = "wal.bcl"
	walPrevName  = walName + ".prev"
	tmpSuffix    = ".tmp"

	snapshotMagic = "BCMHSNP1"
)

// Defaults for the zero Options.
const (
	// DefaultFsyncInterval is the group-commit window of FsyncInterval.
	DefaultFsyncInterval = 100 * time.Millisecond
	// DefaultCompactBytes is the WAL size past which a session is
	// compacted (WAL folded into a fresh snapshot).
	DefaultCompactBytes = 4 << 20
	// DefaultCompactRate is the sustained WAL growth rate, in bytes per
	// second, past which a session is compacted even before the WAL
	// reaches DefaultCompactBytes — a stream writing this fast would
	// otherwise outgrow the log faster than background folds retire it.
	DefaultCompactRate = 1 << 20
	// maxRecordBytes bounds one WAL record frame; a corrupt length
	// prefix cannot provoke a giant allocation.
	maxRecordBytes = 16 << 20
)

// Growth-rate trigger tuning: the rate is measured over rateWindow, and
// the open window is only trusted once minRateWindow of it has elapsed
// (before that the last completed window answers, so one burst right
// after a rollover is not mistaken for an enormous rate).
const (
	rateWindow    = time.Second
	minRateWindow = rateWindow / 8
)

// castagnoli is the CRC32C table (the checksum used by both file
// formats).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncInterval group-commits: appends are synced by a background
	// timer within FsyncInterval of the first unsynced record. The
	// default.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs every append before it is acknowledged.
	FsyncAlways
	// FsyncNever never syncs appends explicitly; the OS flushes on its
	// own schedule.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("durable: unknown fsync policy %q (want \"always\", \"interval\", or \"never\")", s)
	}
}

// Options configures a Manager.
type Options struct {
	// Dir is the root data directory (required).
	Dir string
	// FS is the filesystem seam; nil means the real OS filesystem.
	FS FS
	// Fsync is the WAL append durability policy.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval group-commit window (zero:
	// DefaultFsyncInterval).
	FsyncInterval time.Duration
	// CompactBytes is the WAL size past which ShouldCompact reports
	// true (zero: DefaultCompactBytes; negative: never by size).
	CompactBytes int64
	// CompactRate is the sustained WAL growth rate, in bytes per
	// second, past which ShouldCompact reports true even below
	// CompactBytes, so a fast stream compacts early instead of racing
	// the background fold ever further past the size threshold (zero:
	// DefaultCompactRate, or never when CompactBytes is negative —
	// an explicit "never compact" stays never; negative: never by
	// rate).
	CompactRate int64
	// Logf receives recovery and compaction warnings (torn records,
	// discontinuous replays). Nil means the standard logger.
	Logf func(format string, args ...any)
}

// Manager owns one root data directory of per-session durable state.
type Manager struct {
	opts Options
	fs   FS
}

// NewManager validates opts, creates the root directory, and returns a
// manager over it.
func NewManager(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("durable: Options.Dir is required")
	}
	if opts.FS == nil {
		opts.FS = OS
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if opts.CompactBytes == 0 {
		opts.CompactBytes = DefaultCompactBytes
	}
	if opts.CompactRate == 0 {
		if opts.CompactBytes < 0 {
			opts.CompactRate = -1
		} else {
			opts.CompactRate = DefaultCompactRate
		}
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("durable: creating data dir: %w", err)
	}
	return &Manager{opts: opts, fs: opts.FS}, nil
}

// Logf forwards to the manager's warning logger (Options.Logf), letting
// callers above the durable layer (boot-time recovery in the store)
// route their warnings to the same sink.
func (m *Manager) Logf(format string, args ...any) { m.opts.Logf(format, args...) }

func (m *Manager) sessionDir(id string) string { return filepath.Join(m.opts.Dir, id) }

// List returns the ids of every session with a durable snapshot on
// disk, sorted.
func (m *Manager) List() ([]string, error) {
	names, err := m.fs.ReadDir(m.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("durable: listing %s: %w", m.opts.Dir, err)
	}
	var ids []string
	for _, name := range names {
		if m.Has(name) {
			ids = append(ids, name)
		}
	}
	return ids, nil
}

// Has reports whether session id has a durable snapshot on disk.
func (m *Manager) Has(id string) bool {
	_, err := m.fs.Size(filepath.Join(m.sessionDir(id), snapshotName))
	return err == nil
}

// Remove deletes every durable file of session id. Only an explicit
// session deletion calls this — eviction must not (an evicted durable
// session is rehydrated from these files on next access).
func (m *Manager) Remove(id string) error {
	if err := m.fs.RemoveAll(m.sessionDir(id)); err != nil {
		return fmt.Errorf("durable: removing session %q: %w", id, err)
	}
	// Make the unlink durable too: a crash right after an acked DELETE
	// must not resurrect the session.
	if err := m.fs.SyncDir(m.opts.Dir); err != nil {
		return fmt.Errorf("durable: syncing data dir after removing %q: %w", id, err)
	}
	return nil
}

// encodeSnapshot renders the snapshot file image for g (+labels).
func encodeSnapshot(g *graph.Graph, labels []int64) ([]byte, error) {
	payload, err := graph.AppendBinary(nil, g, labels)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(snapshotMagic)+12+len(payload))
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return buf, nil
}

// decodeSnapshot parses a snapshot file image.
func decodeSnapshot(data []byte) (*graph.Graph, []int64, error) {
	if len(data) < len(snapshotMagic)+12 {
		return nil, nil, fmt.Errorf("durable: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, nil, fmt.Errorf("durable: bad snapshot magic %q", data[:len(snapshotMagic)])
	}
	data = data[len(snapshotMagic):]
	plen := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if uint64(len(data)) != plen+4 {
		return nil, nil, fmt.Errorf("durable: snapshot length mismatch: header says %d payload bytes, file carries %d", plen, len(data)-4)
	}
	payload, sum := data[:plen], binary.LittleEndian.Uint32(data[plen:])
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, nil, fmt.Errorf("durable: snapshot checksum mismatch (stored %#x, computed %#x)", sum, got)
	}
	return graph.DecodeBinary(payload)
}

// record is one decoded WAL record: an edit batch and the version
// transition it performs.
type record struct {
	pre, post uint64
	edits     []graph.Edit
}

// appendRecord renders one framed WAL record.
func appendRecord(buf []byte, pre, post uint64, edits []graph.Edit) []byte {
	payload := binary.AppendUvarint(nil, pre)
	payload = binary.AppendUvarint(payload, post)
	payload = binary.AppendUvarint(payload, uint64(len(edits)))
	for _, e := range edits {
		payload = append(payload, byte(e.Op))
		payload = binary.AppendUvarint(payload, uint64(e.U))
		payload = binary.AppendUvarint(payload, uint64(e.V))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(e.W))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// decodeRecords parses as many valid records as data holds. It returns
// the records, the byte offset of the first invalid frame (== len(data)
// when the file is clean), and a description of why parsing stopped
// early ("" when it did not).
func decodeRecords(data []byte) (recs []record, validLen int64, torn string) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 8 {
			return recs, int64(off), fmt.Sprintf("torn frame header (%d trailing bytes)", len(rest))
		}
		plen := int(binary.LittleEndian.Uint32(rest))
		sum := binary.LittleEndian.Uint32(rest[4:])
		if plen > maxRecordBytes {
			return recs, int64(off), fmt.Sprintf("implausible record length %d", plen)
		}
		if len(rest) < 8+plen {
			return recs, int64(off), fmt.Sprintf("torn record (%d of %d payload bytes)", len(rest)-8, plen)
		}
		payload := rest[8 : 8+plen]
		if got := crc32.Checksum(payload, castagnoli); got != sum {
			return recs, int64(off), fmt.Sprintf("record checksum mismatch (stored %#x, computed %#x)", sum, got)
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return recs, int64(off), err.Error()
		}
		recs = append(recs, rec)
		off += 8 + plen
	}
	return recs, int64(off), ""
}

// decodePayload parses one record payload.
func decodePayload(payload []byte) (record, error) {
	var rec record
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return 0, false
		}
		payload = payload[n:]
		return v, true
	}
	pre, ok1 := next()
	post, ok2 := next()
	n, ok3 := next()
	if !ok1 || !ok2 || !ok3 {
		return rec, errors.New("truncated record header")
	}
	if post != pre+1 {
		return rec, fmt.Errorf("record version transition %d→%d is not a single step", pre, post)
	}
	if n == 0 || n > uint64(maxRecordBytes/10) {
		return rec, fmt.Errorf("implausible edit count %d", n)
	}
	rec.pre, rec.post = pre, post
	rec.edits = make([]graph.Edit, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(payload) < 1 {
			return rec, fmt.Errorf("truncated edit %d/%d", i, n)
		}
		op := graph.EditOp(payload[0])
		payload = payload[1:]
		if op != graph.EditAdd && op != graph.EditRemove {
			return rec, fmt.Errorf("edit %d has unknown op %d", i, op)
		}
		u, ok1 := next()
		v, ok2 := next()
		if !ok1 || !ok2 || len(payload) < 8 {
			return rec, fmt.Errorf("truncated edit %d/%d", i, n)
		}
		w := math.Float64frombits(binary.LittleEndian.Uint64(payload))
		payload = payload[8:]
		rec.edits = append(rec.edits, graph.Edit{Op: op, U: int(u), V: int(v), W: w})
	}
	if len(payload) != 0 {
		return rec, fmt.Errorf("%d trailing bytes in record", len(payload))
	}
	return rec, nil
}

// Log is the open durable handle of one live session: the WAL file plus
// the compaction and fsync machinery. A Log is healthy until its first
// write failure; from then on every Append fails with the same sticky
// error and the registered failure handler has fired — the store maps
// that to the session's read-only degraded mode. Safe for concurrent
// use.
type Log struct {
	m   *Manager
	id  string
	dir string

	mu       sync.Mutex
	wal      File
	walBytes int64
	dirty    bool        // unsynced appends (FsyncInterval)
	timer    *time.Timer // pending group-commit
	failed   error       // sticky first write failure
	closed   bool

	rateMark      time.Time // growth-rate window start (zero: no window yet)
	rateMarkBytes int64     // walBytes when the window opened
	lastRate      float64   // bytes/s of the last completed window

	onFail     atomic.Pointer[func(error)]
	compacting atomic.Bool
}

func (m *Manager) newLog(id string, wal File, walBytes int64) *Log {
	return &Log{m: m, id: id, dir: m.sessionDir(id), wal: wal, walBytes: walBytes}
}

// Create persists a brand-new session: directory, snapshot of g (and
// labels), and an empty WAL. On success the returned Log accepts
// appends. Any failure leaves the session unpersisted (the store then
// serves it degraded).
func (m *Manager) Create(id string, g *graph.Graph, labels []int64) (*Log, error) {
	dir := m.sessionDir(id)
	if err := m.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: creating session dir %q: %w", id, err)
	}
	img, err := encodeSnapshot(g, labels)
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(m.fs, filepath.Join(dir, snapshotName), img); err != nil {
		return nil, err
	}
	wal, err := m.fs.OpenAppend(filepath.Join(dir, walName), true)
	if err != nil {
		return nil, fmt.Errorf("durable: opening WAL of %q: %w", id, err)
	}
	return m.newLog(id, wal, 0), nil
}

// Recovered describes the outcome of one session recovery.
type Recovered struct {
	// Graph is the recovered graph, at the version snapshot+replay
	// reached; Labels is its external-label table (nil when none was
	// persisted).
	Graph  *graph.Graph
	Labels []int64
	// Replayed counts WAL records applied on top of the snapshot.
	Replayed int
	// Torn reports that replay ended early at a torn, corrupt, or
	// discontinuous record (the tail was discarded).
	Torn bool
}

// Recover rebuilds session id from its durable files: snapshot, then
// version-continuous replay of any mid-compaction previous WAL and the
// current WAL, torn tails truncated with a warning. On success the
// durable state is re-canonicalized (fresh snapshot at the recovered
// version when anything was replayed, empty WAL) and the returned Log
// accepts appends.
func (m *Manager) Recover(id string) (Recovered, *Log, error) {
	var rec Recovered
	dir := m.sessionDir(id)
	img, err := m.fs.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		return rec, nil, fmt.Errorf("durable: reading snapshot of %q: %w", id, err)
	}
	g, labels, err := decodeSnapshot(img)
	if err != nil {
		return rec, nil, fmt.Errorf("durable: session %q: %w", id, err)
	}
	// Sweep transient files a crashed writer may have left.
	if names, err := m.fs.ReadDir(dir); err == nil {
		for _, name := range names {
			if strings.HasSuffix(name, tmpSuffix) {
				_ = m.fs.Remove(filepath.Join(dir, name))
			}
		}
	}
	// Replay: the previous WAL (present only when a compaction died
	// between rotation and snapshot) strictly precedes the current one.
	cur := g
	hadPrev := false
	for _, name := range []string{walPrevName, walName} {
		data, err := m.fs.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return rec, nil, fmt.Errorf("durable: reading %s of %q: %w", name, id, err)
		}
		if name == walPrevName {
			hadPrev = true
		}
		records, _, torn := decodeRecords(data)
		if torn != "" {
			rec.Torn = true
			m.opts.Logf("durable: session %q: %s: %s; truncating the tail", id, name, torn)
		}
		for _, r := range records {
			if r.post <= cur.Version() {
				continue // already folded into the snapshot: exactly-once
			}
			if r.pre != cur.Version() {
				rec.Torn = true
				m.opts.Logf("durable: session %q: %s: record %d→%d does not continue version %d; discarding the tail",
					id, name, r.pre, r.post, cur.Version())
				break
			}
			next, _, err := graph.ApplyEdits(cur, r.edits)
			if err != nil {
				rec.Torn = true
				m.opts.Logf("durable: session %q: %s: replaying record %d→%d: %v; discarding the tail",
					id, name, r.pre, r.post, err)
				break
			}
			cur = next
			rec.Replayed++
		}
		if rec.Torn {
			break
		}
	}
	// Canonicalize when replay changed anything: fold the WAL into a
	// fresh snapshot so the next boot replays nothing, then start an
	// empty WAL. A crash inside this very sequence just repeats the
	// same recovery.
	if rec.Replayed > 0 || rec.Torn || hadPrev {
		img, err := encodeSnapshot(cur, labels)
		if err != nil {
			return rec, nil, fmt.Errorf("durable: session %q: %w", id, err)
		}
		if err := writeFileAtomic(m.fs, filepath.Join(dir, snapshotName), img); err != nil {
			return rec, nil, err
		}
		if hadPrev {
			_ = m.fs.Remove(filepath.Join(dir, walPrevName))
		}
	}
	wal, err := m.fs.OpenAppend(filepath.Join(dir, walName), true)
	if err != nil {
		return rec, nil, fmt.Errorf("durable: opening WAL of %q: %w", id, err)
	}
	rec.Graph, rec.Labels = cur, labels
	return rec, m.newLog(id, wal, 0), nil
}

// OnFailure registers fn to run once, on the Log's first write failure
// (appends, background group-commits, and compaction writes all
// count). The store hooks session degradation here.
func (l *Log) OnFailure(fn func(error)) { l.onFail.Store(&fn) }

// Err returns the sticky first write failure, or nil while healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// WalBytes returns the current WAL size in bytes.
func (l *Log) WalBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.walBytes
}

// failLocked records the first failure and schedules the handler.
// Caller holds l.mu.
func (l *Log) failLocked(err error) {
	if l.failed != nil {
		return
	}
	l.failed = err
	if fn := l.onFail.Load(); fn != nil {
		// Outside the lock: the handler may call back into the Log.
		go (*fn)(err)
	}
}

// Append writes one framed mutation record — the version transition
// pre→post and its edit batch — and applies the fsync policy. The
// append must be acknowledged here before the caller swaps the
// mutation into memory: a batch the WAL never accepted must not
// become visible, or a restart would silently roll it back.
func (l *Log) Append(pre, post uint64, edits []graph.Edit) error {
	frame := appendRecord(nil, pre, post, edits)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("durable: append to closed log of %q", l.id)
	}
	if l.failed != nil {
		return l.failed
	}
	if _, err := l.wal.Write(frame); err != nil {
		err = fmt.Errorf("durable: appending to WAL of %q: %w", l.id, err)
		l.failLocked(err)
		return err
	}
	l.walBytes += int64(len(frame))
	l.observeGrowthLocked()
	switch l.m.opts.Fsync {
	case FsyncAlways:
		if err := l.wal.Sync(); err != nil {
			err = fmt.Errorf("durable: syncing WAL of %q: %w", l.id, err)
			l.failLocked(err)
			return err
		}
	case FsyncInterval:
		l.dirty = true
		if l.timer == nil {
			l.timer = time.AfterFunc(l.m.opts.FsyncInterval, l.groupCommit)
		}
	case FsyncNever:
	}
	return nil
}

// groupCommit is the FsyncInterval timer body.
func (l *Log) groupCommit() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.timer = nil
	if l.closed || l.failed != nil || !l.dirty {
		return
	}
	if err := l.wal.Sync(); err != nil {
		l.failLocked(fmt.Errorf("durable: group-commit sync of %q: %w", l.id, err))
		return
	}
	l.dirty = false
}

// observeGrowthLocked advances the WAL growth-rate window on an
// append: open it on the first record, roll it over once a full
// rateWindow has elapsed. Caller holds l.mu.
func (l *Log) observeGrowthLocked() {
	now := time.Now()
	if l.rateMark.IsZero() {
		l.rateMark, l.rateMarkBytes = now, l.walBytes
		return
	}
	if el := now.Sub(l.rateMark); el >= rateWindow {
		l.lastRate = float64(l.walBytes-l.rateMarkBytes) / el.Seconds()
		l.rateMark, l.rateMarkBytes = now, l.walBytes
	}
}

// growthRateLocked estimates the current WAL growth rate in bytes per
// second. The open window answers once minRateWindow of it has
// elapsed; before that, the last completed window does. An idle log
// decays naturally — elapsed time keeps growing while bytes do not.
// Caller holds l.mu.
func (l *Log) growthRateLocked() float64 {
	if l.rateMark.IsZero() {
		return 0
	}
	el := time.Since(l.rateMark)
	if el < minRateWindow {
		return l.lastRate
	}
	return float64(l.walBytes-l.rateMarkBytes) / el.Seconds()
}

// ShouldCompact reports whether the WAL has outgrown a compaction
// threshold (and the Log is healthy and not already compacting). Two
// triggers, either sufficient: absolute size (walBytes past
// Options.CompactBytes), and sustained growth rate (the WAL growing
// faster than Options.CompactRate bytes/s while already holding at
// least one window's worth of data at that rate — the floor keeps a
// fast but tiny stream from folding on every append). The rate
// trigger is what lets a sustained mutation stream compact early and
// often instead of racing the background fold ever further past the
// size threshold.
func (l *Log) ShouldCompact() bool {
	if l.compacting.Load() {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil || l.closed {
		return false
	}
	if t := l.m.opts.CompactBytes; t >= 0 && l.walBytes > t {
		return true
	}
	r := l.m.opts.CompactRate
	if r < 0 {
		return false
	}
	return l.walBytes > r*int64(rateWindow/time.Second) && l.growthRateLocked() > float64(r)
}

// StartCompacting claims the single compaction slot; the caller must
// pair it with EndCompacting. It returns false when a compaction is
// already running.
func (l *Log) StartCompacting() bool { return l.compacting.CompareAndSwap(false, true) }

// EndCompacting releases the compaction slot.
func (l *Log) EndCompacting() { l.compacting.Store(false) }

// Rotate begins a compaction: the current WAL becomes wal.bcl.prev and
// a fresh empty WAL starts accepting appends. The caller must hold the
// session's mutation lock, so every record in the rotated-out file
// belongs to a version the graph captured right after Rotate already
// includes — that is what makes deleting it after FinishCompact safe.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("durable: rotate on closed log of %q", l.id)
	}
	if l.failed != nil {
		return l.failed
	}
	if err := l.wal.Close(); err != nil {
		err = fmt.Errorf("durable: closing WAL of %q for rotation: %w", l.id, err)
		l.failLocked(err)
		return err
	}
	walPath := filepath.Join(l.dir, walName)
	if err := l.m.fs.Rename(walPath, filepath.Join(l.dir, walPrevName)); err != nil {
		err = fmt.Errorf("durable: rotating WAL of %q: %w", l.id, err)
		l.failLocked(err)
		return err
	}
	wal, err := l.m.fs.OpenAppend(walPath, true)
	if err != nil {
		err = fmt.Errorf("durable: opening fresh WAL of %q: %w", l.id, err)
		l.failLocked(err)
		return err
	}
	l.wal = wal
	l.walBytes = 0
	l.dirty = false
	// The growth-rate window restarts with the fresh WAL; the rate that
	// triggered this rotation must not immediately trigger the next.
	l.rateMark, l.rateMarkBytes, l.lastRate = time.Time{}, 0, 0
	return nil
}

// FinishCompact completes a compaction begun with Rotate: write a fresh
// snapshot of g (whose version must cover every record in the rotated
// WAL) atomically, then drop the rotated WAL. Runs off the mutation
// lock — appends proceed concurrently into the fresh WAL.
func (l *Log) FinishCompact(g *graph.Graph, labels []int64) error {
	img, err := encodeSnapshot(g, labels)
	if err == nil {
		err = writeFileAtomic(l.m.fs, filepath.Join(l.dir, snapshotName), img)
	}
	if err != nil {
		l.mu.Lock()
		l.failLocked(err)
		l.mu.Unlock()
		return err
	}
	// Best-effort: a surviving wal.bcl.prev only costs recovery a few
	// skipped (version-superseded) records.
	if err := l.m.fs.Remove(filepath.Join(l.dir, walPrevName)); err != nil {
		l.m.opts.Logf("durable: session %q: removing rotated WAL: %v (harmless; it is version-superseded)", l.id, err)
	}
	return nil
}

// Close flushes and closes the WAL. The files stay on disk — Close is
// eviction/shutdown, not deletion.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	var err error
	if l.dirty && l.failed == nil {
		err = l.wal.Sync()
	}
	if cerr := l.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
