// Package jobs is the async-job surface of the serving stack: a small
// manager for long-running computations (minutes-scale whole-graph
// rankings, where holding an HTTP request open is the wrong shape)
// that gives each one an id, a live progress snapshot, a retained
// result, and prompt cancellation.
//
// A job runs in its own goroutine under a context derived from the
// parent the caller supplies — internal/store passes the graph
// session's lifecycle context, so deleting (or evicting) a session
// cancels every job running on it exactly like it aborts in-flight
// estimates. Cancel fires the same context with ErrCancelled as the
// cause; either way the job's Runner observes a cancelled context and
// returns, and the manager records the terminal status.
//
// The manager bounds concurrent executions (ErrTooMany when the bound
// is hit — callers map it to 429) and retains a bounded number of
// terminal job records for result pickup, evicting the oldest finished
// ones first.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusRunning: the Runner has been started and has not returned.
	StatusRunning Status = "running"
	// StatusDone: the Runner returned a result.
	StatusDone Status = "done"
	// StatusFailed: the Runner returned a non-cancellation error.
	StatusFailed Status = "failed"
	// StatusCancelled: the Runner aborted on a cancelled context —
	// explicit Cancel, or the parent (session) context dying.
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool { return s != StatusRunning }

// Sentinel errors; the HTTP layer maps each to a pinned status code.
var (
	// ErrNotFound: no job with the requested id (404).
	ErrNotFound = errors.New("jobs: job not found")
	// ErrTooMany: the manager is at its concurrent-execution bound (429).
	ErrTooMany = errors.New("jobs: too many concurrent jobs")
	// ErrCancelled is the cancellation cause Cancel installs on the
	// job's context.
	ErrCancelled = errors.New("jobs: job cancelled")
)

// Defaults for the zero Config.
const (
	// DefaultMaxRunning bounds concurrently executing jobs.
	DefaultMaxRunning = 4
	// DefaultMaxTracked bounds retained job records (running ones are
	// never evicted; terminal ones go oldest-first).
	DefaultMaxTracked = 64
)

// Config tunes a Manager.
type Config struct {
	// MaxRunning bounds concurrently executing jobs. Zero means
	// DefaultMaxRunning.
	MaxRunning int
	// MaxTracked bounds retained job records. Zero means
	// DefaultMaxTracked; it is raised to MaxRunning if set lower.
	MaxTracked int
}

func (c Config) withDefaults() Config {
	if c.MaxRunning <= 0 {
		c.MaxRunning = DefaultMaxRunning
	}
	if c.MaxTracked <= 0 {
		c.MaxTracked = DefaultMaxTracked
	}
	if c.MaxTracked < c.MaxRunning {
		c.MaxTracked = c.MaxRunning
	}
	return c
}

// Runner is one job's computation. It must honour ctx (return promptly
// once cancelled) and may call report at any time to publish a progress
// snapshot — the latest snapshot is what Get returns while the job
// runs. The returned result is retained on success.
type Runner func(ctx context.Context, report func(progress any)) (result any, err error)

// Manager owns a set of jobs. Safe for concurrent use.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // insertion order, for oldest-first eviction
	running int
}

// NewManager returns an empty manager.
func NewManager(cfg Config) *Manager {
	return &Manager{cfg: cfg.withDefaults(), jobs: make(map[string]*Job)}
}

// Job is one tracked computation. All methods are safe for concurrent
// use.
type Job struct {
	id      string
	owner   string
	meta    any
	created time.Time
	cancel  context.CancelCauseFunc
	done    chan struct{}

	mu       sync.Mutex
	status   Status
	progress any
	result   any
	err      error
	finished time.Time
}

// Info is a point-in-time job description, JSON-shaped for the HTTP
// layer. Progress carries the Runner's latest report while running;
// Result carries the returned value once done; Meta is the immutable
// tag the caller attached at Start (the store records the graph
// version the job started on and its on_mutate policy there).
type Info struct {
	ID       string     `json:"id"`
	Owner    string     `json:"owner,omitempty"`
	Meta     any        `json:"meta,omitempty"`
	Status   Status     `json:"status"`
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
	Progress any        `json:"progress,omitempty"`
	Result   any        `json:"result,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// Info snapshots the job.
func (j *Job) Info() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := Info{
		ID:       j.id,
		Owner:    j.owner,
		Meta:     j.meta,
		Status:   j.status,
		Created:  j.created,
		Progress: j.progress,
		Result:   j.result,
	}
	if j.status.Terminal() {
		t := j.finished
		info.Finished = &t
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	return info
}

// newID returns a fresh 16-hex-char random job id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("jobs: crypto/rand failed: " + err.Error()) // no sane fallback
	}
	return hex.EncodeToString(b[:])
}

// Start launches run as a new job under a context derived from parent:
// cancelling parent (e.g. the graph session dying) or calling Cancel
// aborts it. owner is an opaque tag recorded in Info (the session id);
// meta is an immutable caller-shaped annotation recorded alongside it
// (nil for none — the store stamps the graph version a ranking started
// on and its mutation policy). onExit, when non-nil, runs after the
// job reaches its terminal state — the store uses it to release the
// session's in-flight reservation. Start fails with ErrTooMany at the
// concurrent-execution bound.
func (m *Manager) Start(parent context.Context, owner string, meta any, run Runner, onExit func()) (*Job, error) {
	m.mu.Lock()
	if m.running >= m.cfg.MaxRunning {
		m.mu.Unlock()
		return nil, ErrTooMany
	}
	id := newID()
	for _, taken := m.jobs[id]; taken; _, taken = m.jobs[id] {
		id = newID()
	}
	ctx, cancel := context.WithCancelCause(parent)
	j := &Job{
		id:      id,
		owner:   owner,
		meta:    meta,
		created: time.Now(),
		cancel:  cancel,
		done:    make(chan struct{}),
		status:  StatusRunning,
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.running++
	m.evictLocked()
	m.mu.Unlock()

	go func() {
		result, err := run(ctx, j.report)
		j.finalize(result, err, ctx)
		cancel(context.Canceled) // release the context resources
		m.mu.Lock()
		m.running--
		m.mu.Unlock()
		close(j.done)
		if onExit != nil {
			onExit()
		}
	}()
	return j, nil
}

// report publishes a progress snapshot (dropped once terminal, so a
// racing report cannot overwrite a final state's last progress).
func (j *Job) report(p any) {
	j.mu.Lock()
	if j.status == StatusRunning {
		j.progress = p
	}
	j.mu.Unlock()
}

// finalize records the Runner's outcome. A cancellation error is
// surfaced as StatusCancelled with the context's cause (ErrCancelled,
// or e.g. the store's session-closed sentinel) as the recorded error.
func (j *Job) finalize(result any, err error, ctx context.Context) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = result
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = StatusCancelled
		if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
			err = cause
		}
		j.err = err
	default:
		j.status = StatusFailed
		j.err = err
	}
}

// Get returns the job named id.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Cancel requests cancellation of the job named id. It returns as soon
// as the job's context is cancelled; the status flips to terminal when
// the Runner observes the cancellation (promptly, by contract). Already
// terminal jobs are left untouched.
func (m *Manager) Cancel(id string) (*Job, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	j.cancel(ErrCancelled)
	return j, nil
}

// List snapshots every tracked job, newest first.
func (m *Manager) List() []Info {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]Info, len(jobs))
	for i, j := range jobs {
		out[len(jobs)-1-i] = j.Info()
	}
	return out
}

// evictLocked drops the oldest terminal jobs while over MaxTracked.
// Caller holds m.mu.
func (m *Manager) evictLocked() {
	if len(m.jobs) <= m.cfg.MaxTracked {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		if len(m.jobs) > m.cfg.MaxTracked && j.terminal() {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.Terminal()
}
