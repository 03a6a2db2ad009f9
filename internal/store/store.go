// Package store is the multi-tenant graph layer of the serving stack:
// where internal/engine binds one prepared graph to one set of shared
// caches, a Store manages many named graph *sessions* — created from
// uploaded edge lists, listed, fetched, and deleted over a management
// API — under one bounded memory budget.
//
// Each session owns a full engine.Engine (μ-cache, result LRU, buffer
// pools, target-snapshot cache), the label table mapping input-file
// vertex ids to engine ids, and a session-scoped context. Sessions
// are dynamic: a batched edge-mutation API (mutate.go; PATCH
// /graphs/{id}/edges and POST /graphs/{id}/stream over HTTP) rewrites
// a session's graph copy-on-write, bumping its version, re-accounting
// its budget share, and leaving in-flight work snapshot-isolated on
// the old snapshot. The store enforces:
//
//   - a total memory budget: when the estimated resident cost of all
//     sessions exceeds Config.MaxBytes (or their count exceeds
//     Config.MaxSessions), least-recently-used *idle* sessions are
//     evicted — pinned sessions (preloaded at server startup) and
//     sessions with requests in flight are never touched;
//   - creation singleflight: concurrent uploads of the same session id
//     share one parse + engine build, so a retrying client cannot
//     stampede the store into building the same graph twice;
//   - lifecycle-coupled cancellation: deleting a session (or closing
//     the store) cancels its context with ErrSessionClosed as the
//     cause, which aborts every in-flight chain on that session via the
//     context threading in internal/mcmc — an evicted graph stops
//     consuming CPU immediately, not after MaxSteps more traversals.
//
// server.go wraps a Store in the /graphs HTTP management API and mounts
// each session's estimation routes beneath /graphs/{id}/, with the
// legacy single-graph routes aliased to a designated default session.
package store

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bcmh/internal/durable"
	"bcmh/internal/engine"
	"bcmh/internal/graph"
)

// Sentinel errors of the session lifecycle; the HTTP layer maps each to
// a pinned status code.
var (
	// ErrNotFound: no session with the requested id (404).
	ErrNotFound = errors.New("store: graph session not found")
	// ErrExists: a session with this id already exists (409).
	ErrExists = errors.New("store: graph session already exists")
	// ErrTooLarge: the uploaded graph alone exceeds the store's memory
	// budget and can never be resident (413).
	ErrTooLarge = errors.New("store: graph exceeds the store memory budget")
	// ErrStoreClosed: the store has shut down (503).
	ErrStoreClosed = errors.New("store: store is closed")
	// ErrSessionClosed is the cancellation cause installed on a
	// session's context when the session is deleted, evicted, or the
	// store closes. In-flight estimates on that session abort with a
	// context error whose context.Cause is this value (503).
	ErrSessionClosed = errors.New("store: graph session closed")
	// ErrVersionConflict: a mutation's if_version precondition did not
	// match the session's current graph version (409).
	ErrVersionConflict = errors.New("store: graph version conflict")
	// ErrMutatedUnderJob is the versioned cancellation cause installed
	// on a job's context when its session's graph mutates and the job
	// was started with the on_mutate=cancel policy.
	ErrMutatedUnderJob = errors.New("store: graph mutated under job")
	// ErrDegraded: the session is read-only because a durable write
	// (WAL append, snapshot write) failed; mutations are rejected (503)
	// while estimates keep serving. The wrapped error carries the
	// pinned first cause.
	ErrDegraded = errors.New("store: session is degraded (read-only): durable write failed")
)

// Defaults for the zero Config.
const (
	// DefaultMaxBytes bounds the estimated resident cost of all
	// sessions: 1 GiB.
	DefaultMaxBytes = int64(1) << 30
	// DefaultMaxSessions bounds the number of resident sessions.
	DefaultMaxSessions = 64
)

// idPattern constrains session ids so they embed cleanly in URL paths
// and filenames.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Config tunes a Store.
type Config struct {
	// MaxBytes bounds the summed estimated cost of resident sessions
	// (see Session.Cost). Zero means DefaultMaxBytes.
	MaxBytes int64
	// MaxSessions bounds the number of resident sessions. Zero means
	// DefaultMaxSessions.
	MaxSessions int
	// ResultCacheSize is passed to each session's engine.Config.
	ResultCacheSize int
	// Durable, when non-nil, persists every session to the manager's
	// data directory: a snapshot on creation, a WAL record per applied
	// mutation batch, file deletion on Delete (and only on Delete —
	// eviction keeps the files and the session rehydrates from them on
	// next access). Open additionally replays the whole catalog at
	// boot. When a durable write fails the session degrades to
	// read-only (ErrDegraded) instead of taking the process down.
	Durable *durable.Manager
}

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultMaxBytes
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	return c
}

// Store manages named graph sessions under one memory budget. Safe for
// concurrent use.
type Store struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*list.Element // values: *list.Element of lru
	lru      *list.List               // front = most recently used; values *Session
	building map[string]*buildCall    // creation singleflight, keyed by id
	total    int64                    // Σ Session.Cost over resident sessions
	closed   bool

	evictions atomic.Uint64
	builds    atomic.Uint64
}

// buildCall is one in-flight session creation or disk rehydration;
// concurrent Create/rehydrate calls for the same id block on done and
// share sess/err.
type buildCall struct {
	done      chan struct{}
	sess      *Session
	err       error
	rehydrate bool // loading existing durable state, not creating anew
	riders    int  // callers parked on done (guarded by Store.mu)
}

// New returns an empty store. With Config.Durable set the store
// persists sessions as they are created and rehydrates evicted ones on
// access, but does not load the on-disk catalog — use Open for a boot
// that recovers every persisted session up front.
func New(cfg Config) *Store {
	return &Store{
		cfg:      cfg.withDefaults(),
		sessions: make(map[string]*list.Element),
		lru:      list.New(),
		building: make(map[string]*buildCall),
	}
}

// Open is New plus boot-time recovery: every session found in the
// durable data directory is replayed (snapshot + WAL) and inserted.
// Per-session recovery failures are logged and skipped — a torn or
// corrupt session never refuses the boot; only an unreadable data
// directory does. Sessions beyond the memory budget are evicted
// LRU-first immediately, which is harmless: their files stay put and
// they rehydrate on first access.
func Open(cfg Config) (*Store, error) {
	st := New(cfg)
	if cfg.Durable == nil {
		return st, nil
	}
	ids, err := cfg.Durable.List()
	if err != nil {
		return nil, fmt.Errorf("store: listing durable sessions: %w", err)
	}
	for _, id := range ids {
		if CheckID(id) != nil {
			continue // foreign directory, not one of ours
		}
		if _, err := st.rehydrate(id); err != nil {
			cfg.Durable.Logf("store: skipping unrecoverable session %q: %v", id, err)
		}
	}
	return st, nil
}

// Session is one resident graph with its engine and serving state. All
// methods are safe for concurrent use.
type Session struct {
	id      string
	eng     *engine.Engine
	labels  []int64      // engine vertex -> input label (nil: identity)
	cost    atomic.Int64 // mutations re-estimate it (edge count changes)
	pinned  bool
	created time.Time

	ctx    context.Context // cancelled with cause ErrSessionClosed on close
	cancel context.CancelCauseFunc

	active   atomic.Int64 // in-flight request count; evictable only at 0
	lastUsed atomic.Int64 // unix nanos of the latest Get/Acquire/release

	handlerOnce sync.Once // lazy per-session HTTP handler (server.go)
	handler     httpHandler

	// Mutation state (mutate.go): mutMtx serializes edit batches so
	// if_version preconditions are atomic; mutations counts applied
	// batches; byLabel is the lazily built label→vertex table edits are
	// addressed through; verCh is the close-and-replace broadcast jobs
	// with the on_mutate=cancel policy watch.
	mutMtx      sync.Mutex
	compacting  atomic.Bool // overlay compaction in flight (stream.go)
	mutations   atomic.Uint64
	byLabelOnce sync.Once
	byLabel     map[int64]int
	verMu       sync.Mutex
	verCh       chan struct{}

	// Durability (when the store has a durable.Manager): dur is the
	// open snapshot+WAL handle (nil when the session failed to persist
	// at birth and is serving degraded); durable records that the
	// session was *meant* to persist; degraded pins the first durable
	// write failure — from then on the session is read-only: mutations
	// are rejected with ErrDegraded, estimates keep serving.
	durable  bool
	dur      *durable.Log
	degraded atomic.Pointer[degradedInfo]
}

// degradedInfo pins the first durable write failure of a session.
type degradedInfo struct {
	cause error
	at    time.Time
}

// degrade flips the session to read-only, keeping the first cause.
// Idempotent and safe from any goroutine (the WAL group-commit timer
// included).
func (s *Session) degrade(cause error) {
	s.degraded.CompareAndSwap(nil, &degradedInfo{cause: cause, at: time.Now()})
}

// Degraded returns the session's read-only degradation state and its
// pinned first cause (nil when healthy).
func (s *Session) Degraded() (bool, error) {
	if d := s.degraded.Load(); d != nil {
		return true, d.cause
	}
	return false, nil
}

// WalBytes returns the session's current WAL size (0 for non-durable
// sessions).
func (s *Session) WalBytes() int64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.WalBytes()
}

// ID returns the session's store id.
func (s *Session) ID() string { return s.id }

// Engine returns the session's estimation engine.
func (s *Session) Engine() *engine.Engine { return s.eng }

// Labels returns the engine-vertex → input-label table (nil when the
// session was created from an in-memory graph without labels). Not a
// copy; do not modify.
func (s *Session) Labels() []int64 { return s.labels }

// Cost is the session's estimated resident memory in bytes, the value
// the store's budget accounting uses. It is a deliberate proxy — CSR
// arrays, label tables, and a fixed allowance for the engine's caches —
// not a measurement. Mutations re-estimate it (the edge count moves).
func (s *Session) Cost() int64 { return s.cost.Load() }

// Version returns the session's current graph version.
func (s *Session) Version() uint64 { return s.eng.Version() }

// LastUsed returns the time of the session's most recent use.
func (s *Session) LastUsed() time.Time { return time.Unix(0, s.lastUsed.Load()) }

// Context returns the session-scoped context: cancelled, with
// ErrSessionClosed as the cause, when the session is deleted or evicted
// or the store closes. Estimates on the session should run under a
// context derived from both this and the request's own context — see
// RequestContext.
func (s *Session) Context() context.Context { return s.ctx }

// Closed reports whether the session has been deleted or evicted.
func (s *Session) Closed() bool { return s.ctx.Err() != nil }

// RequestContext derives a context for serving one request on this
// session: it is cancelled when either the request's own ctx or the
// session's lifecycle context is cancelled, and it preserves the
// session's cancellation cause (ErrSessionClosed) so the HTTP layer can
// distinguish "client hung up" (499) from "session was closed under the
// request" (503). The returned stop function must be called when the
// request finishes to release the coupling.
func (s *Session) RequestContext(ctx context.Context) (context.Context, context.CancelFunc) {
	rctx, cancel := context.WithCancelCause(ctx)
	stop := context.AfterFunc(s.ctx, func() {
		cancel(context.Cause(s.ctx))
	})
	return rctx, func() {
		stop()
		cancel(context.Canceled)
	}
}

// sessionCost estimates the resident bytes of a session over a prepared
// graph with n vertices and m undirected edges: the CSR adjacency
// (two int32-ish endpoints per directed arc plus offsets), the label
// and mapping tables, and a flat allowance for the engine's μ-cache,
// result LRU, pooled buffers, and target-snapshot cache (all O(n) per
// entry, bounded counts).
func sessionCost(n, m int) int64 {
	return 64*int64(n) + 32*int64(m) + 1<<16
}

// touch updates recency under the store lock.
func (st *Store) touch(el *list.Element) {
	st.lru.MoveToFront(el)
	el.Value.(*Session).lastUsed.Store(time.Now().UnixNano())
}

// Create parses an edge list from r and creates a session named id over
// it. Concurrent Create calls with the same id share one parse and
// engine build and all receive the same session (uploads racing on one
// id are assumed to carry the same graph). An id that is already
// resident fails with ErrExists; a graph whose estimated cost alone
// exceeds the store budget fails with ErrTooLarge. Creating a new
// session may evict idle unpinned sessions (LRU first) to make room.
func (st *Store) Create(id string, r io.Reader) (*Session, error) {
	if err := CheckID(id); err != nil {
		return nil, err
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, ErrStoreClosed
	}
	if _, ok := st.sessions[id]; ok {
		st.mu.Unlock()
		return nil, ErrExists
	}
	if bc, ok := st.building[id]; ok {
		// Singleflight: ride the in-flight build — unless it is a disk
		// rehydration, whose success means the id is taken.
		bc.riders++
		st.mu.Unlock()
		<-bc.done
		if bc.rehydrate && bc.err == nil {
			return nil, ErrExists
		}
		return bc.sess, bc.err
	}
	if st.durableExists(id) {
		// The id belongs to an evicted-but-persisted session. Creating
		// over it would clobber its files; the id stays taken until an
		// explicit Delete.
		st.mu.Unlock()
		return nil, fmt.Errorf("%w (session %q is persisted on disk; delete it first)", ErrExists, id)
	}
	bc := &buildCall{done: make(chan struct{})}
	st.building[id] = bc
	st.mu.Unlock()

	bc.sess, bc.err = st.build(id, r)
	return st.finishBuild(id, bc)
}

// durableExists reports whether id has durable files on disk. Caller
// holds st.mu (the Stat-shaped probe is cheap enough to sit under it,
// and keeping it there makes the exists-check atomic with the
// residency check).
func (st *Store) durableExists(id string) bool {
	return st.cfg.Durable != nil && st.cfg.Durable.Has(id)
}

// finishBuild completes a build/rehydrate singleflight: register the
// session (unless the store closed or the id appeared meanwhile),
// release the waiters, and — on failure — tear the orphan session down
// without touching its durable files.
func (st *Store) finishBuild(id string, bc *buildCall) (*Session, error) {
	st.mu.Lock()
	delete(st.building, id)
	if bc.err == nil {
		// The store may have closed while the build ran unlocked;
		// inserting then would leave an unevictable session with a
		// live context in a closed store.
		if st.closed {
			bc.err = ErrStoreClosed
		} else {
			bc.err = st.insertLocked(bc.sess)
		}
		if bc.err != nil {
			bc.sess.shutdown()
			bc.sess = nil
		}
	}
	st.mu.Unlock()
	close(bc.done)
	return bc.sess, bc.err
}

// shutdown cancels the session's lifecycle and closes (not deletes) its
// durable handle.
func (s *Session) shutdown() {
	s.cancel(ErrSessionClosed)
	if s.dur != nil {
		_ = s.dur.Close()
	}
}

// build parses and prepares a session outside the store lock.
func (st *Store) build(id string, r io.Reader) (*Session, error) {
	g, idOf, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	sess, err := st.newSession(id, g, idOf, false)
	if err != nil {
		return nil, err
	}
	st.persistNew(sess)
	return sess, nil
}

// persistNew writes a fresh session's durable state (snapshot + empty
// WAL). A persistence failure does not fail the creation: the session
// serves, but degraded — read-only with the cause pinned — so one bad
// disk never turns the upload path into an outage.
func (st *Store) persistNew(sess *Session) {
	if st.cfg.Durable == nil {
		return
	}
	sess.durable = true
	dl, err := st.cfg.Durable.Create(sess.id, sess.eng.Graph(), sess.labels)
	if err != nil {
		sess.degrade(err)
		return
	}
	sess.dur = dl
	dl.OnFailure(sess.degrade)
}

// rehydrate loads an evicted (or boot-time) durable session back from
// disk, sharing the creation singleflight so concurrent accesses do one
// recovery.
func (st *Store) rehydrate(id string) (*Session, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, ErrStoreClosed
	}
	if el, ok := st.sessions[id]; ok {
		// Raced back in while we were deciding.
		st.touch(el)
		st.mu.Unlock()
		return el.Value.(*Session), nil
	}
	if bc, ok := st.building[id]; ok {
		bc.riders++
		st.mu.Unlock()
		<-bc.done
		return bc.sess, bc.err
	}
	if !st.durableExists(id) {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	bc := &buildCall{done: make(chan struct{}), rehydrate: true}
	st.building[id] = bc
	st.mu.Unlock()

	bc.sess, bc.err = st.buildFromDisk(id)
	return st.finishBuild(id, bc)
}

// buildFromDisk recovers one session's graph from snapshot + WAL and
// rebuilds its engine over the recovered version.
func (st *Store) buildFromDisk(id string) (*Session, error) {
	rec, dl, err := st.cfg.Durable.Recover(id)
	if err != nil {
		return nil, fmt.Errorf("store: recovering session %q: %w", id, err)
	}
	// The persisted graph is the prepared (connected) one, so the
	// engine performs no component extraction and rec.Labels maps
	// engine vertices directly.
	sess, err := st.newSession(id, rec.Graph, rec.Labels, false)
	if err != nil {
		_ = dl.Close()
		return nil, err
	}
	sess.durable = true
	sess.dur = dl
	dl.OnFailure(sess.degrade)
	return sess, nil
}

// CreateFromGraph creates a session directly from an in-memory graph,
// bypassing the edge-list parse: the path server startup preloads take.
// idOf, when non-nil, maps the raw graph's vertex ids to input labels
// (as returned by graph.ReadEdgeList). Pinned sessions are exempt from
// LRU eviction.
func (st *Store) CreateFromGraph(id string, g *graph.Graph, idOf []int64, pinned bool) (*Session, error) {
	if err := CheckID(id); err != nil {
		return nil, err
	}
	// Claim the id before building: a resident session, an in-flight
	// build, or durable files on disk (an evicted or boot-recovered
	// session) all mean the id is taken — building first would waste an
	// engine build and, worse, persisting would clobber the files of the
	// session that owns the id.
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, ErrStoreClosed
	}
	if _, ok := st.sessions[id]; ok {
		st.mu.Unlock()
		return nil, ErrExists
	}
	if _, ok := st.building[id]; ok {
		st.mu.Unlock()
		return nil, ErrExists
	}
	if st.durableExists(id) {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w (session %q is persisted on disk; delete it first)", ErrExists, id)
	}
	bc := &buildCall{done: make(chan struct{})}
	st.building[id] = bc
	st.mu.Unlock()

	bc.sess, bc.err = st.newSession(id, g, idOf, pinned)
	if bc.err == nil {
		st.persistNew(bc.sess)
	}
	return st.finishBuild(id, bc)
}

// CheckID validates a session id against the store id alphabet (the
// rules idPattern encodes). Exported so front-ends deriving ids (e.g.
// bcserve from -in file names) validate against the one authority.
func CheckID(id string) error {
	if !idPattern.MatchString(id) {
		return fmt.Errorf("store: invalid session id %q (want 1-64 of [A-Za-z0-9._-], starting alphanumeric)", id)
	}
	return nil
}

// newSession builds the engine and session shell (no store insertion).
func (st *Store) newSession(id string, g *graph.Graph, idOf []int64, pinned bool) (*Session, error) {
	st.builds.Add(1)
	// The lifecycle context exists before the engine so the engine's
	// background work (detached μ computations) dies with the session.
	ctx, cancel := context.WithCancelCause(context.Background())
	eng, err := engine.NewWithConfig(g, engine.Config{
		ResultCacheSize: st.cfg.ResultCacheSize,
		Lifecycle:       ctx,
	})
	if err != nil {
		cancel(ErrSessionClosed)
		return nil, fmt.Errorf("store: preparing graph %q: %w", id, err)
	}
	prepared := eng.Graph()
	cost := sessionCost(prepared.N(), prepared.M())
	if cost > st.cfg.MaxBytes {
		cancel(ErrSessionClosed)
		return nil, fmt.Errorf("%w: session %q needs ~%d bytes, budget is %d", ErrTooLarge, id, cost, st.cfg.MaxBytes)
	}
	now := time.Now()
	sess := &Session{
		id:      id,
		eng:     eng,
		labels:  composeLabels(eng, idOf),
		pinned:  pinned,
		created: now,
		ctx:     ctx,
		cancel:  cancel,
	}
	sess.cost.Store(cost)
	sess.lastUsed.Store(now.UnixNano())
	return sess, nil
}

// composeLabels folds the engine's largest-component mapping into the
// edge-list label table: labels[v] is the input-file label of engine
// vertex v. A nil idOf (in-memory graph) yields nil — requests then
// address raw engine ids.
func composeLabels(eng *engine.Engine, idOf []int64) []int64 {
	if idOf == nil {
		return nil
	}
	labels := make([]int64, eng.Graph().N())
	mapping := eng.Mapping()
	for v := range labels {
		rawV := v
		if mapping != nil {
			rawV = mapping[v]
		}
		labels[v] = idOf[rawV]
	}
	return labels
}

// insertLocked registers a built session and evicts over budget.
// Caller holds st.mu.
func (st *Store) insertLocked(sess *Session) error {
	if _, ok := st.sessions[sess.id]; ok {
		return ErrExists
	}
	el := st.lru.PushFront(sess)
	st.sessions[sess.id] = el
	st.total += sess.Cost()
	st.evictLocked(sess)
	return nil
}

// recost re-accounts a session's budget share after a mutation changed
// its estimated size, evicting idle sessions if the store went over.
func (st *Store) recost(sess *Session, newCost int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	old := sess.cost.Swap(newCost)
	if el, ok := st.sessions[sess.id]; ok && el.Value.(*Session) == sess && !st.closed {
		st.total += newCost - old
		st.evictLocked(sess)
	}
}

// evictLocked walks the LRU tail evicting idle, unpinned sessions
// (never `keep`) until the store is back under both budgets or nothing
// more can go. Sessions with requests in flight are skipped — evicting
// would abort traffic the budget pressure didn't come from; the budget
// is soft in exactly that case and re-checked on the next insertion.
func (st *Store) evictLocked(keep *Session) {
	over := func() bool {
		return st.total > st.cfg.MaxBytes || st.lru.Len() > st.cfg.MaxSessions
	}
	el := st.lru.Back()
	for over() && el != nil {
		prev := el.Prev()
		sess := el.Value.(*Session)
		if sess != keep && !sess.pinned && sess.active.Load() == 0 {
			st.removeLocked(el, sess)
			st.evictions.Add(1)
		}
		el = prev
	}
}

// removeLocked unregisters a session, cancels its context, and closes
// (not deletes) its durable handle. Caller holds st.mu.
func (st *Store) removeLocked(el *list.Element, sess *Session) {
	st.lru.Remove(el)
	delete(st.sessions, sess.id)
	st.total -= sess.Cost()
	sess.shutdown()
}

// Get returns the session named id, bumping its recency. A durable
// session that was evicted is transparently rehydrated from disk. The
// caller must not hold the session across slow work if it wants
// eviction protection — use Acquire for serving requests.
func (st *Store) Get(id string) (*Session, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, ErrStoreClosed
	}
	if el, ok := st.sessions[id]; ok {
		st.touch(el)
		sess := el.Value.(*Session)
		st.mu.Unlock()
		return sess, nil
	}
	st.mu.Unlock()
	// Not resident: rehydrate answers with the recovered session or
	// ErrNotFound when no durable state exists either.
	return st.rehydrate(id)
}

// Acquire is Get plus an in-flight reservation: until the returned
// release function is called, the session cannot be evicted by the
// memory budget (explicit Delete still closes it, aborting the work —
// that is the point of lifecycle cancellation). Every serving request
// runs between Acquire and release. Like Get, Acquire transparently
// rehydrates an evicted durable session.
func (st *Store) Acquire(id string) (*Session, func(), error) {
	var sess *Session
	for attempt := 0; ; attempt++ {
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			return nil, nil, ErrStoreClosed
		}
		if el, ok := st.sessions[id]; ok {
			st.touch(el)
			sess = el.Value.(*Session)
			sess.active.Add(1)
			st.mu.Unlock()
			break
		}
		st.mu.Unlock()
		if attempt > 0 {
			// Rehydrated and evicted again before we could reserve it —
			// the budget is clearly too tight to hold it; give up rather
			// than loop.
			return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		if _, err := st.rehydrate(id); err != nil {
			return nil, nil, err
		}
	}
	var once sync.Once
	release := func() {
		once.Do(func() {
			sess.active.Add(-1)
			// Re-bump recency at completion time, not just at Acquire:
			// a session that just finished a long request is the most
			// recently used one, and eviction walks the list order.
			st.mu.Lock()
			if cur, ok := st.sessions[sess.id]; ok && cur.Value.(*Session) == sess {
				st.touch(cur)
			} else {
				sess.lastUsed.Store(time.Now().UnixNano())
			}
			st.mu.Unlock()
		})
	}
	return sess, release, nil
}

// Delete removes the session named id and cancels its context with
// cause ErrSessionClosed, aborting its in-flight estimates promptly.
// For durable sessions this is the one operation that deletes the
// on-disk files — eviction never does — so it also removes an evicted
// session that exists only on disk.
func (st *Store) Delete(id string) error {
	for {
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			return ErrStoreClosed
		}
		if bc, ok := st.building[id]; ok {
			// A build or rehydration is in flight; deleting files under
			// it would race. Wait for it to settle, then delete.
			st.mu.Unlock()
			<-bc.done
			continue
		}
		el, resident := st.sessions[id]
		if resident {
			st.removeLocked(el, el.Value.(*Session))
		}
		onDisk := st.durableExists(id)
		st.mu.Unlock()
		if !resident && !onDisk {
			return fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		if onDisk {
			return st.cfg.Durable.Remove(id)
		}
		return nil
	}
}

// Info is a point-in-time description of one session, JSON-shaped for
// the management API.
type Info struct {
	ID string `json:"id"`
	N  int    `json:"n"`
	M  int    `json:"m"`
	// Version is the session's current graph version (0 at creation,
	// +1 per applied edit batch); Mutations counts applied batches.
	Version   uint64    `json:"version"`
	Mutations uint64    `json:"mutations"`
	Bytes     int64     `json:"bytes"`
	Pinned    bool      `json:"pinned"`
	Active    int64     `json:"active"`
	Created   time.Time `json:"created"`
	LastUsed  time.Time `json:"last_used"`
	// Durable reports that the session persists to disk; WalBytes is its
	// current WAL size. Degraded means a durable write failed and the
	// session is read-only, with DegradedCause carrying the pinned first
	// failure.
	Durable       bool   `json:"durable,omitempty"`
	WalBytes      int64  `json:"wal_bytes,omitempty"`
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedCause string `json:"degraded_cause,omitempty"`
}

func (s *Session) info() Info {
	snap := s.eng.Snapshot()
	g := snap.Graph
	info := Info{
		ID:        s.id,
		N:         g.N(),
		M:         g.M(),
		Version:   snap.Version,
		Mutations: s.mutations.Load(),
		Bytes:     s.Cost(),
		Pinned:    s.pinned,
		Active:    s.active.Load(),
		Created:   s.created,
		LastUsed:  s.LastUsed(),
		Durable:   s.durable,
		WalBytes:  s.WalBytes(),
	}
	if deg, cause := s.Degraded(); deg {
		info.Degraded = true
		info.DegradedCause = cause.Error()
	}
	return info
}

// List describes every resident session, sorted by id.
func (st *Store) List() []Info {
	st.mu.Lock()
	out := make([]Info, 0, st.lru.Len())
	for el := st.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Session).info())
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats is the store-level counter snapshot.
type Stats struct {
	Sessions    int    `json:"sessions"`
	TotalBytes  int64  `json:"total_bytes"`
	MaxBytes    int64  `json:"max_bytes"`
	MaxSessions int    `json:"max_sessions"`
	Evictions   uint64 `json:"evictions"`
	// Builds counts session constructions (graph prepare + engine
	// build). Concurrent uploads of one id share a build, so this stays
	// below the number of Create calls under duplicate-upload races.
	Builds uint64 `json:"builds"`
}

// Stats returns the store-level counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return Stats{
		Sessions:    st.lru.Len(),
		TotalBytes:  st.total,
		MaxBytes:    st.cfg.MaxBytes,
		MaxSessions: st.cfg.MaxSessions,
		Evictions:   st.evictions.Load(),
		Builds:      st.builds.Load(),
	}
}

// Len returns the number of resident sessions.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lru.Len()
}

// Close deletes every session (cancelling their contexts, so all
// in-flight work aborts) and marks the store closed; subsequent calls
// fail with ErrStoreClosed. Idempotent.
func (st *Store) Close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	for el := st.lru.Front(); el != nil; {
		next := el.Next()
		st.removeLocked(el, el.Value.(*Session))
		el = next
	}
}
