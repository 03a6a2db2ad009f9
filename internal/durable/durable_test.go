package durable

import (
	"bytes"
	"errors"
	"io/fs"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"bcmh/internal/graph"
)

// pathGraph builds the path 0–1–…–(n-1): connected, easy to extend.
func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v-1, v)
	}
	return b.MustBuild()
}

func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	m, err := NewManager(opts)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

// applyAndLog applies one edit batch in memory and appends its WAL
// record, as the store's mutation path does.
func applyAndLog(t *testing.T, l *Log, g *graph.Graph, edits ...graph.Edit) *graph.Graph {
	t.Helper()
	next, _, err := graph.ApplyEdits(g, edits)
	if err != nil {
		t.Fatalf("ApplyEdits: %v", err)
	}
	if err := l.Append(g.Version(), next.Version(), edits); err != nil {
		t.Fatalf("Append: %v", err)
	}
	return next
}

// canonicalBytes is the identity the whole layer promises to preserve:
// two graphs with equal canonical encodings are bit-identical CSRs, so
// every seeded estimate on them agrees bit-for-bit.
func canonicalBytes(t *testing.T, g *graph.Graph, labels []int64) []byte {
	t.Helper()
	buf, err := graph.AppendBinary(nil, g, labels)
	if err != nil {
		t.Fatalf("AppendBinary: %v", err)
	}
	return buf
}

func add(u, v int) graph.Edit { return graph.Edit{Op: graph.EditAdd, U: u, V: v, W: 1} }

func TestCreateRecoverRoundTrip(t *testing.T) {
	m := newTestManager(t, Options{})
	g := pathGraph(t, 10)
	labels := make([]int64, 10)
	for i := range labels {
		labels[i] = int64(100 + i)
	}
	l, err := m.Create("s1", g, labels)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if !m.Has("s1") {
		t.Fatal("Has(s1) = false after Create")
	}
	if ids, err := m.List(); err != nil || len(ids) != 1 || ids[0] != "s1" {
		t.Fatalf("List = %v, %v", ids, err)
	}

	cur := applyAndLog(t, l, g, add(0, 5))
	cur = applyAndLog(t, l, cur, add(2, 7))
	if l.WalBytes() == 0 {
		t.Fatal("WalBytes = 0 after two appends")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec, l2, err := m.Recover("s1")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer l2.Close()
	if rec.Replayed != 2 || rec.Torn {
		t.Fatalf("Recovered = %+v, want Replayed=2 Torn=false", rec)
	}
	if got, want := canonicalBytes(t, rec.Graph, rec.Labels), canonicalBytes(t, cur, labels); !bytes.Equal(got, want) {
		t.Fatal("recovered graph differs from the mutated lineage")
	}
	if rec.Graph.Version() != 2 {
		t.Fatalf("recovered version %d, want 2", rec.Graph.Version())
	}
	l2.Close()

	// Recovery canonicalized: a second recovery replays nothing and
	// lands on the same bytes.
	rec2, l3, err := m.Recover("s1")
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	defer l3.Close()
	if rec2.Replayed != 0 || rec2.Torn {
		t.Fatalf("second recovery = %+v, want clean no-replay", rec2)
	}
	if !bytes.Equal(canonicalBytes(t, rec2.Graph, rec2.Labels), canonicalBytes(t, cur, labels)) {
		t.Fatal("second recovery differs")
	}
}

func TestRecoverTornTail(t *testing.T) {
	m := newTestManager(t, Options{})
	g := pathGraph(t, 8)
	l, err := m.Create("s", g, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cur := applyAndLog(t, l, g, add(0, 4))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a torn append: half a record's worth of garbage at the
	// tail.
	wal := filepath.Join(m.Dir(), "s", walName)
	f, err := OS.OpenAppend(wal, false)
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	f.Write([]byte{9, 9, 9, 9, 9})
	f.Close()

	rec, l2, err := m.Recover("s")
	if err != nil {
		t.Fatalf("Recover refused a torn tail: %v", err)
	}
	defer l2.Close()
	if !rec.Torn || rec.Replayed != 1 {
		t.Fatalf("Recovered = %+v, want Torn=true Replayed=1", rec)
	}
	if !bytes.Equal(canonicalBytes(t, rec.Graph, nil), canonicalBytes(t, cur, nil)) {
		t.Fatal("recovered graph lost the valid prefix")
	}
}

func TestRecoverDiscontinuousRecord(t *testing.T) {
	m := newTestManager(t, Options{})
	g := pathGraph(t, 8)
	l, err := m.Create("s", g, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Valid record 0→1, then a record claiming 5→6: replay must stop at
	// the discontinuity, keeping the prefix.
	cur := applyAndLog(t, l, g, add(0, 4))
	if err := l.Append(5, 6, []graph.Edit{add(1, 5)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	l.Close()
	rec, l2, err := m.Recover("s")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer l2.Close()
	if !rec.Torn || rec.Replayed != 1 || rec.Graph.Version() != cur.Version() {
		t.Fatalf("Recovered = %+v (version %d), want Torn, Replayed=1, version %d",
			rec, rec.Graph.Version(), cur.Version())
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			m := newTestManager(t, Options{Fsync: policy, FsyncInterval: 5 * time.Millisecond})
			g := pathGraph(t, 6)
			l, err := m.Create("s", g, nil)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			cur := applyAndLog(t, l, g, add(0, 3))
			if policy == FsyncInterval {
				// Give the group-commit timer a chance to fire; Close
				// would flush anyway, so this only widens coverage.
				time.Sleep(20 * time.Millisecond)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			rec, l2, err := m.Recover("s")
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer l2.Close()
			if rec.Graph.Version() != cur.Version() {
				t.Fatalf("recovered version %d, want %d", rec.Graph.Version(), cur.Version())
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("ParseFsyncPolicy(bogus) accepted")
	}
}

func TestAppendFailureIsStickyAndFiresHandler(t *testing.T) {
	ffs := NewFaultFS(OS)
	m := newTestManager(t, Options{FS: ffs, Fsync: FsyncAlways})
	g := pathGraph(t, 6)
	l, err := m.Create("s", g, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer l.Close()
	var fired atomic.Int32
	l.OnFailure(func(error) { fired.Add(1) })

	ffs.ArmAfter(1, FaultError) // next write op = the WAL append write
	err = l.Append(0, 1, []graph.Edit{add(0, 3)})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Append error = %v, want ErrInjected", err)
	}
	// Sticky: later appends fail with the same first cause without
	// touching the file.
	if err2 := l.Append(0, 1, []graph.Edit{add(0, 3)}); !errors.Is(err2, ErrInjected) {
		t.Fatalf("second Append = %v, want sticky ErrInjected", err2)
	}
	deadline := time.After(2 * time.Second)
	for fired.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("OnFailure handler never fired")
		case <-time.After(time.Millisecond):
		}
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("OnFailure fired %d times, want 1", got)
	}
	if l.Err() == nil {
		t.Fatal("Err() = nil after failure")
	}
}

func TestShortWriteAppendRecovers(t *testing.T) {
	ffs := NewFaultFS(OS)
	m := newTestManager(t, Options{FS: ffs, Fsync: FsyncNever})
	g := pathGraph(t, 8)
	l, err := m.Create("s", g, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cur := applyAndLog(t, l, g, add(0, 4)) // durable record
	ffs.ArmAfter(1, FaultShortWrite)
	if err := l.Append(1, 2, []graph.Edit{add(1, 5)}); !errors.Is(err, ErrInjected) {
		t.Fatalf("short-write Append = %v, want ErrInjected", err)
	}
	l.Close()
	rec, l2, err := m.Recover("s")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer l2.Close()
	if !rec.Torn || rec.Replayed != 1 {
		t.Fatalf("Recovered = %+v, want Torn=true Replayed=1 (half-written record truncated)", rec)
	}
	if rec.Graph.Version() != cur.Version() {
		t.Fatalf("recovered version %d, want %d", rec.Graph.Version(), cur.Version())
	}
}

func TestCompactionFoldsWALIntoSnapshot(t *testing.T) {
	m := newTestManager(t, Options{CompactBytes: 1}) // everything is over threshold
	g := pathGraph(t, 10)
	l, err := m.Create("s", g, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cur := applyAndLog(t, l, g, add(0, 5))
	cur = applyAndLog(t, l, cur, add(1, 6))
	if !l.ShouldCompact() {
		t.Fatal("ShouldCompact = false over a 1-byte threshold")
	}
	if !l.StartCompacting() {
		t.Fatal("StartCompacting lost a race with nobody")
	}
	if l.ShouldCompact() {
		t.Fatal("ShouldCompact = true while compacting")
	}
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	// Appends continue into the fresh WAL during the snapshot write.
	cur = applyAndLog(t, l, cur, add(2, 7))
	if err := l.FinishCompact(cur, nil); err != nil {
		t.Fatalf("FinishCompact: %v", err)
	}
	l.EndCompacting()
	if l.WalBytes() == 0 {
		t.Fatal("post-rotation append vanished from WalBytes")
	}
	l.Close()

	// wal.prev must be gone; recovery sees the compacted snapshot.
	if _, err := OS.Size(filepath.Join(m.Dir(), "s", walPrevName)); err == nil {
		t.Fatal("wal.bcl.prev survived FinishCompact")
	}
	rec, l2, err := m.Recover("s")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer l2.Close()
	if !bytes.Equal(canonicalBytes(t, rec.Graph, nil), canonicalBytes(t, cur, nil)) {
		t.Fatal("recovery after compaction differs from the live lineage")
	}
	// The snapshot covers version 3 even though the rotated WAL only
	// reached 2 — FinishCompact snapshotted the newer graph, and replay
	// skipped the superseded post-rotation record (exactly-once).
	if rec.Graph.Version() != 3 {
		t.Fatalf("recovered version %d, want 3", rec.Graph.Version())
	}
}

func TestCrashBetweenRotateAndSnapshotReplaysPrev(t *testing.T) {
	m := newTestManager(t, Options{})
	g := pathGraph(t, 10)
	l, err := m.Create("s", g, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cur := applyAndLog(t, l, g, add(0, 5))
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	cur = applyAndLog(t, l, cur, add(1, 6))
	// Crash here: no FinishCompact — wal.bcl.prev still holds record
	// 0→1, wal.bcl holds 1→2, snapshot is at version 0.
	l.Close()

	rec, l2, err := m.Recover("s")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer l2.Close()
	if rec.Replayed != 2 || rec.Torn {
		t.Fatalf("Recovered = %+v, want Replayed=2 across prev+current WALs", rec)
	}
	if !bytes.Equal(canonicalBytes(t, rec.Graph, nil), canonicalBytes(t, cur, nil)) {
		t.Fatal("recovery across a mid-compaction crash differs")
	}
	if _, err := OS.Size(filepath.Join(m.Dir(), "s", walPrevName)); err == nil {
		t.Fatal("recovery left wal.bcl.prev behind")
	}
}

func TestManagerRemove(t *testing.T) {
	m := newTestManager(t, Options{})
	g := pathGraph(t, 5)
	l, err := m.Create("s", g, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	l.Close()
	if err := m.Remove("s"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if m.Has("s") {
		t.Fatal("Has(s) = true after Remove")
	}
	if _, _, err := m.Recover("s"); !IsNotExist(err) {
		t.Fatalf("Recover after Remove = %v, want not-exist", err)
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	m := newTestManager(t, Options{})
	g := pathGraph(t, 6)
	l, err := m.Create("s", g, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	l.Close()
	snap := filepath.Join(m.Dir(), "s", snapshotName)
	data, err := OS.ReadFile(snap)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)-5] ^= 0xff // flip a payload byte under the checksum
	f, _ := OS.Create(snap)
	f.Write(data)
	f.Close()
	if _, _, err := m.Recover("s"); err == nil {
		t.Fatal("Recover accepted a corrupt snapshot")
	}
}

// TestShouldCompactGrowthRate pins the second compaction trigger: a
// WAL growing faster than CompactRate bytes/s compacts before it ever
// reaches CompactBytes, a trickle or an idle log never does, and
// rotation restarts the measurement so one hot window cannot trigger
// twice. The window start is backdated directly (same package) so the
// test is deterministic without wall-clock sleeps.
func TestShouldCompactGrowthRate(t *testing.T) {
	m := newTestManager(t, Options{CompactBytes: 1 << 30, CompactRate: 1024})
	g := pathGraph(t, 64)
	l, err := m.Create("s", g, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer l.Close()
	cur := g
	for v := 2; v < 64; v++ {
		cur = applyAndLog(t, l, cur, add(0, v))
	}
	if l.WalBytes() <= 1024 {
		t.Fatalf("test needs the WAL past the %d-byte rate floor, got %d", 1024, l.WalBytes())
	}

	// A window younger than minRateWindow is not trusted, and with no
	// completed window behind it the rate reads as zero.
	l.mu.Lock()
	l.rateMark = time.Now()
	l.mu.Unlock()
	if l.ShouldCompact() {
		t.Fatal("ShouldCompact fired on an untrusted newborn window")
	}

	// The same bytes observed over a quarter window is a fast stream:
	// > 4 KiB/s against a 1 KiB/s trigger.
	l.mu.Lock()
	l.rateMark = l.rateMark.Add(-rateWindow / 4)
	l.mu.Unlock()
	if !l.ShouldCompact() {
		t.Fatal("ShouldCompact missed a WAL growing above CompactRate")
	}

	// Observed over an hour the same bytes are a trickle.
	l.mu.Lock()
	l.rateMark = time.Now().Add(-time.Hour)
	l.mu.Unlock()
	if l.ShouldCompact() {
		t.Fatal("ShouldCompact fired on a slow-growing WAL")
	}

	// Rotation resets the window: the rate that triggered the fold must
	// not immediately trigger the next one.
	l.mu.Lock()
	l.rateMark = time.Now().Add(-rateWindow / 4)
	l.mu.Unlock()
	if !l.ShouldCompact() {
		t.Fatal("rate trigger did not re-arm")
	}
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if err := l.FinishCompact(cur, nil); err != nil {
		t.Fatalf("FinishCompact: %v", err)
	}
	if l.ShouldCompact() {
		t.Fatal("ShouldCompact fired right after rotation emptied the WAL")
	}
}

// TestCompactRateDefaults pins the Options plumbing: zero inherits the
// default, except that an explicit never-by-size stays never overall,
// and negative disables the rate trigger outright.
func TestCompactRateDefaults(t *testing.T) {
	cases := []struct {
		bytes, rate int64
		want        int64
	}{
		{0, 0, DefaultCompactRate},
		{1 << 10, 0, DefaultCompactRate},
		{-1, 0, -1},
		{-1, 512, 512},
		{0, -1, -1},
	}
	for _, c := range cases {
		m := newTestManager(t, Options{CompactBytes: c.bytes, CompactRate: c.rate})
		if got := m.opts.CompactRate; got != c.want {
			t.Errorf("CompactBytes=%d CompactRate=%d: resolved rate %d, want %d",
				c.bytes, c.rate, got, c.want)
		}
	}
}

// Dir returns the manager's root data directory.
func (m *Manager) Dir() string { return m.opts.Dir }

// IsNotExist reports whether err (from Recover) means the session has
// no durable state at all, as opposed to unreadable state.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
