package jobs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// waitTerminal blocks until the job is terminal (with a deadline) and
// returns its final info.
func waitTerminal(t *testing.T, j *Job) Info {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never reached a terminal state", j.ID())
	}
	return j.Info()
}

func TestJobLifecycle(t *testing.T) {
	m := NewManager(Config{})
	exited := make(chan struct{})
	j, err := m.Start(context.Background(), "g1", nil, func(ctx context.Context, report func(any)) (any, error) {
		report("halfway")
		return 42, nil
	}, func() { close(exited) })
	if err != nil {
		t.Fatal(err)
	}
	info := waitTerminal(t, j)
	if info.Status != StatusDone || info.Result != 42 || info.Owner != "g1" {
		t.Fatalf("unexpected final info: %+v", info)
	}
	if info.Finished == nil || info.Error != "" {
		t.Fatalf("terminal bookkeeping wrong: %+v", info)
	}
	select {
	case <-exited:
	case <-time.After(time.Second):
		t.Fatal("onExit never ran")
	}
	// Still retrievable after completion.
	got, err := m.Get(j.ID())
	if err != nil || got != j {
		t.Fatalf("Get after completion: %v %v", got, err)
	}
}

func TestJobProgressSnapshot(t *testing.T) {
	m := NewManager(Config{})
	reported := make(chan struct{})
	release := make(chan struct{})
	j, err := m.Start(context.Background(), "g", nil, func(ctx context.Context, report func(any)) (any, error) {
		report("round 1")
		close(reported)
		<-release
		return nil, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-reported
	if info := j.Info(); info.Status != StatusRunning || info.Progress != "round 1" {
		t.Fatalf("mid-run info: %+v", info)
	}
	close(release)
	waitTerminal(t, j)
}

func TestJobCancel(t *testing.T) {
	m := NewManager(Config{})
	j, err := m.Start(context.Background(), "g", nil, func(ctx context.Context, report func(any)) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	info := waitTerminal(t, j)
	if info.Status != StatusCancelled {
		t.Fatalf("status %q, want cancelled", info.Status)
	}
	if info.Error != ErrCancelled.Error() {
		t.Fatalf("error %q, want the ErrCancelled cause", info.Error)
	}
}

// TestJobDiesWithParent pins the session-coupling contract: cancelling
// the parent context (the store does this when a session is deleted)
// terminates the job with the parent's cause recorded.
func TestJobDiesWithParent(t *testing.T) {
	m := NewManager(Config{})
	sessionErr := errors.New("session closed")
	parent, die := context.WithCancelCause(context.Background())
	j, err := m.Start(parent, "g", nil, func(ctx context.Context, report func(any)) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	die(sessionErr)
	info := waitTerminal(t, j)
	if info.Status != StatusCancelled || info.Error != sessionErr.Error() {
		t.Fatalf("want cancelled with the session cause, got %+v", info)
	}
}

func TestJobFailure(t *testing.T) {
	m := NewManager(Config{})
	boom := errors.New("boom")
	j, err := m.Start(context.Background(), "g", nil, func(ctx context.Context, report func(any)) (any, error) {
		return nil, boom
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	info := waitTerminal(t, j)
	if info.Status != StatusFailed || info.Error != "boom" {
		t.Fatalf("want failed/boom, got %+v", info)
	}
}

func TestJobConcurrencyBound(t *testing.T) {
	m := NewManager(Config{MaxRunning: 2})
	release := make(chan struct{})
	blocker := func(ctx context.Context, report func(any)) (any, error) {
		<-release
		return nil, nil
	}
	j1, err := m.Start(context.Background(), "g", nil, blocker, nil)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Start(context.Background(), "g", nil, blocker, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(context.Background(), "g", nil, blocker, nil); !errors.Is(err, ErrTooMany) {
		t.Fatalf("third job: want ErrTooMany, got %v", err)
	}
	close(release)
	waitTerminal(t, j1)
	waitTerminal(t, j2)
	// Capacity is back.
	j4, err := m.Start(context.Background(), "g", nil, func(ctx context.Context, report func(any)) (any, error) {
		return nil, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j4)
}

func TestJobRetentionEviction(t *testing.T) {
	m := NewManager(Config{MaxRunning: 1, MaxTracked: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := m.Start(context.Background(), fmt.Sprintf("g%d", i), nil,
			func(ctx context.Context, report func(any)) (any, error) { return i, nil }, nil)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		ids = append(ids, j.ID())
	}
	if n := m.Len(); n > 3 {
		t.Fatalf("tracked %d jobs, cap 3", n)
	}
	// The newest job always survives.
	if _, err := m.Get(ids[len(ids)-1]); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
	if _, err := m.Get("doesnotexist0000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestJobList(t *testing.T) {
	m := NewManager(Config{MaxRunning: 4})
	for i := 0; i < 3; i++ {
		j, err := m.Start(context.Background(), fmt.Sprintf("g%d", i), nil,
			func(ctx context.Context, report func(any)) (any, error) { return nil, nil }, nil)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("list length %d", len(list))
	}
	// Newest first.
	if list[0].Owner != "g2" || list[2].Owner != "g0" {
		t.Fatalf("list order: %+v", list)
	}
}

func TestJobMetaIsRecorded(t *testing.T) {
	m := NewManager(Config{})
	meta := map[string]any{"graph_version": uint64(3), "on_mutate": "cancel"}
	j, err := m.Start(context.Background(), "g", meta, func(ctx context.Context, report func(any)) (any, error) {
		return nil, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	got, ok := j.Info().Meta.(map[string]any)
	if !ok {
		t.Fatalf("meta = %#v, want the map passed at Start", j.Info().Meta)
	}
	if got["graph_version"] != uint64(3) || got["on_mutate"] != "cancel" {
		t.Fatalf("meta = %#v", got)
	}
}

// ID returns the job id.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Len returns the number of tracked jobs.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}
