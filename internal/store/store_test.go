package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"bcmh/internal/core"
	"bcmh/internal/engine"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// edgeList renders g in the upload wire format.
func edgeList(t testing.TB, g *graph.Graph) string {
	t.Helper()
	var sb strings.Builder
	if err := graph.WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func karateList(t testing.TB) string { return edgeList(t, graph.KarateClub()) }

// newStore returns a store with test-friendly defaults.
func newStore(cfg Config) *Store { return New(cfg) }

func mustCreate(t testing.TB, st *Store, id, edges string) *Session {
	t.Helper()
	sess, err := st.Create(id, strings.NewReader(edges))
	if err != nil {
		t.Fatalf("create %q: %v", id, err)
	}
	return sess
}

func TestStoreLifecycleBasics(t *testing.T) {
	st := newStore(Config{})
	defer st.Close()
	sess := mustCreate(t, st, "karate", karateList(t))
	if sess.ID() != "karate" {
		t.Fatalf("id %q", sess.ID())
	}
	if got := sess.Engine().Graph().N(); got != 34 {
		t.Fatalf("n = %d", got)
	}

	got, err := st.Get("karate")
	if err != nil || got != sess {
		t.Fatalf("get: %v, same=%v", err, got == sess)
	}
	if _, err := st.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown get: %v", err)
	}
	if _, err := st.Create("karate", strings.NewReader(karateList(t))); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := st.Create("bad id!", strings.NewReader(karateList(t))); err == nil {
		t.Fatal("invalid id accepted")
	}
	if _, err := st.Create("broken", strings.NewReader("0 not-a-vertex")); err == nil {
		t.Fatal("malformed edge list accepted")
	}

	infos := st.List()
	if len(infos) != 1 || infos[0].ID != "karate" || infos[0].N != 34 || infos[0].M != 78 {
		t.Fatalf("list %+v", infos)
	}
	if stats := st.Stats(); stats.Sessions != 1 || stats.TotalBytes != sess.Cost() {
		t.Fatalf("stats %+v", stats)
	}

	if err := st.Delete("karate"); err != nil {
		t.Fatal(err)
	}
	if !sess.Closed() {
		t.Fatal("deleted session context not cancelled")
	}
	if cause := context.Cause(sess.Context()); !errors.Is(cause, ErrSessionClosed) {
		t.Fatalf("cancellation cause %v", cause)
	}
	if err := st.Delete("karate"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if st.Len() != 0 {
		t.Fatalf("len %d after delete", st.Len())
	}
}

func TestStoreCloseCancelsEverySession(t *testing.T) {
	st := newStore(Config{})
	a := mustCreate(t, st, "a", karateList(t))
	b := mustCreate(t, st, "b", karateList(t))
	st.Close()
	if !a.Closed() || !b.Closed() {
		t.Fatal("close left a session context alive")
	}
	if _, err := st.Get("a"); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("get after close: %v", err)
	}
	if _, err := st.Create("c", strings.NewReader(karateList(t))); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("create after close: %v", err)
	}
	st.Close() // idempotent
}

// riderReader holds the winning uploader's parse until `want` other
// Create calls are parked on its in-flight build (the rider count is
// read under the store lock, where Create registers a rider), so every
// uploader takes the singleflight path — none can arrive after the
// build finished and get a correct, sequential ErrExists.
type riderReader struct {
	st   *Store
	id   string
	want int
	once sync.Once
	r    io.Reader
}

func (b *riderReader) Read(p []byte) (int, error) {
	b.once.Do(func() {
		// The deadline only turns a lost rider into a test failure (a
		// late uploader's ErrExists) instead of a hang.
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			b.st.mu.Lock()
			riders := b.st.building[b.id].riders
			b.st.mu.Unlock()
			if riders >= b.want {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	})
	return b.r.Read(p)
}

// gateReader blocks the first Read until gate closes — a hook to hold
// a Create's parse open while the test changes store state around it.
type gateReader struct {
	gate <-chan struct{}
	once sync.Once
	r    io.Reader
}

func (g *gateReader) Read(p []byte) (int, error) {
	g.once.Do(func() { <-g.gate })
	return g.r.Read(p)
}

func TestCreateDuringCloseDoesNotLeakSession(t *testing.T) {
	// Close racing a Create whose build is in flight: the build must
	// not be inserted into the closed store, and its session context
	// must not stay alive.
	st := newStore(Config{})
	gate := make(chan struct{})
	type outcome struct {
		sess *Session
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		sess, err := st.Create("late", &gateReader{gate: gate, r: strings.NewReader(karateList(t))})
		done <- outcome{sess, err}
	}()
	// Close the store while the upload's parse is gated, then let the
	// build proceed into its finalize step.
	st.Close()
	close(gate)
	out := <-done
	if !errors.Is(out.err, ErrStoreClosed) {
		t.Fatalf("create finishing after close: err = %v, want ErrStoreClosed", out.err)
	}
	if out.sess != nil {
		t.Fatalf("create returned a session from a closed store")
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("closed store holds %d sessions", n)
	}
}

func TestCreateSingleflightSharesOneBuild(t *testing.T) {
	// Concurrent uploads of one id must converge on a single parse +
	// engine build: everyone gets the same *Session, nobody ErrExists,
	// and the store holds exactly one session built exactly once.
	st := newStore(Config{})
	defer st.Close()
	edges := edgeList(t, graph.BarabasiAlbert(400, 3, rng.New(5)))
	const uploaders = 12
	var (
		wg    sync.WaitGroup
		sesss [uploaders]*Session
		errs  [uploaders]error
	)
	for i := 0; i < uploaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &riderReader{st: st, id: "ba", want: uploaders - 1, r: strings.NewReader(edges)}
			sesss[i], errs[i] = st.Create("ba", r)
		}(i)
	}
	wg.Wait()
	for i := 0; i < uploaders; i++ {
		if errs[i] != nil {
			t.Fatalf("uploader %d: %v", i, errs[i])
		}
		if sesss[i] != sesss[0] {
			t.Fatalf("uploader %d got a different session", i)
		}
	}
	if st.Len() != 1 {
		t.Fatalf("%d sessions after concurrent create", st.Len())
	}
	if builds := st.Stats().Builds; builds != 1 {
		t.Fatalf("%d engine builds for %d concurrent uploads of one id", builds, uploaders)
	}
}

func TestLRUEvictionFreesIdleSessionOnly(t *testing.T) {
	karate := karateList(t)
	karateCost := sessionCost(34, 78)
	// Budget fits two karate sessions but not three.
	st := newStore(Config{MaxBytes: 2*karateCost + karateCost/2})
	defer st.Close()

	a := mustCreate(t, st, "a", karate)
	mustCreate(t, st, "b", karate)
	// Touch a so b is the LRU candidate.
	if _, err := st.Get("a"); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, st, "c", karate)
	if _, err := st.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU session b survived: %v", err)
	}
	if _, err := st.Get("a"); err != nil {
		t.Fatalf("recently used session a evicted: %v", err)
	}
	if got := st.Stats().Evictions; got != 1 {
		t.Fatalf("evictions %d", got)
	}
	if a.Closed() {
		t.Fatal("session a was closed; only b should have been evicted")
	}
}

func TestEvictionSkipsActiveAndPinnedSessions(t *testing.T) {
	karate := karateList(t)
	karateCost := sessionCost(34, 78)
	st := newStore(Config{MaxBytes: karateCost + karateCost/2})
	defer st.Close()

	// A pinned session over an in-memory graph.
	if _, err := st.CreateFromGraph("pinned", graph.KarateClub(), nil, true); err != nil {
		t.Fatal(err)
	}
	// Despite blowing the budget, the pinned session survives creation
	// of another (soft budget: nothing evictable).
	busy := mustCreate(t, st, "busy", karate)
	if _, err := st.Get("pinned"); err != nil {
		t.Fatalf("pinned session evicted: %v", err)
	}

	// An acquired (in-flight) session is skipped too.
	_, release, err := st.Acquire("busy")
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, st, "newcomer", karate)
	if _, err := st.Get("busy"); err != nil {
		t.Fatalf("active session evicted: %v", err)
	}
	if busy.Closed() {
		t.Fatal("active session context cancelled by eviction")
	}
	// After release, the next creation can evict it.
	release()
	mustCreate(t, st, "last", karate)
	if _, err := st.Get("busy"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("idle unpinned session survived while over budget: %v", err)
	}
	if _, err := st.Get("pinned"); err != nil {
		t.Fatalf("pinned session evicted late: %v", err)
	}
}

func TestReleaseBumpsEvictionRecency(t *testing.T) {
	// A session that just finished serving is the most recently used
	// one: eviction order must reflect release time, not Acquire time.
	karate := karateList(t)
	karateCost := sessionCost(34, 78)
	st := newStore(Config{MaxBytes: 2*karateCost + karateCost/2})
	defer st.Close()

	// Acquire a first (front of LRU), then create b (now in front of
	// a), then release a — which must move a back to the front.
	mustCreate(t, st, "a", karate)
	_, release, err := st.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, st, "b", karate)
	release()
	// Over budget now: the eviction victim must be b (stale since its
	// creation), not a (released after b was created).
	mustCreate(t, st, "c", karate)
	if _, err := st.Get("a"); err != nil {
		t.Fatalf("just-released session evicted ahead of a staler one: %v", err)
	}
	if _, err := st.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale session b survived: %v", err)
	}
}

func TestTooLargeGraphRejected(t *testing.T) {
	st := newStore(Config{MaxBytes: 1024})
	defer st.Close()
	if _, err := st.Create("huge", strings.NewReader(karateList(t))); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if st.Len() != 0 {
		t.Fatal("rejected session left residue")
	}
}

func TestMaxSessionsBound(t *testing.T) {
	st := newStore(Config{MaxSessions: 2})
	defer st.Close()
	karate := karateList(t)
	mustCreate(t, st, "a", karate)
	mustCreate(t, st, "b", karate)
	mustCreate(t, st, "c", karate)
	if st.Len() != 2 {
		t.Fatalf("len %d, want 2", st.Len())
	}
	if _, err := st.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest session survived the count bound: %v", err)
	}
}

// TestTwoSessionsServeConcurrentTrafficIndependently is the
// multi-tenancy acceptance test: two sessions estimated concurrently
// give exactly the results their graphs give on dedicated single-tenant
// engines, and evicting the idle one afterwards frees it while the
// other keeps serving.
func TestTwoSessionsServeConcurrentTrafficIndependently(t *testing.T) {
	karateG := graph.KarateClub()
	baG := graph.BarabasiAlbert(200, 3, rng.New(31))
	karateCost := sessionCost(34, 78)
	baCost := sessionCost(baG.N(), baG.M())
	st := newStore(Config{MaxBytes: karateCost + baCost + karateCost/2})
	defer st.Close()
	mustCreate(t, st, "karate", edgeList(t, karateG))
	mustCreate(t, st, "ba", edgeList(t, baG))

	// Reference single-tenant engines over the same parsed edge lists
	// the sessions hold (the chain's proposal stream is a function of
	// vertex ids, so the reference must share the upload's compacted
	// numbering to be bit-comparable).
	ref := make(map[string]*engine.Engine)
	for id, g := range map[string]*graph.Graph{"karate": karateG, "ba": baG} {
		parsed, _, err := graph.ReadEdgeList(strings.NewReader(edgeList(t, g)))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(parsed)
		if err != nil {
			t.Fatal(err)
		}
		ref[id] = eng
	}

	opts := func(seed uint64) core.Options {
		return core.Options{Steps: 400, Seed: seed}
	}
	type job struct {
		id     string
		vertex int
		seed   uint64
	}
	var jobs []job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, job{"karate", i % 34, uint64(i + 1)})
		jobs = append(jobs, job{"ba", i % 200, uint64(i + 100)})
	}
	errCh := make(chan error, len(jobs))
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			sess, release, err := st.Acquire(j.id)
			if err != nil {
				errCh <- err
				return
			}
			defer release()
			got, err := sess.Engine().EstimateContext(context.Background(), j.vertex, opts(j.seed))
			if err != nil {
				errCh <- fmt.Errorf("%s/%d: %v", j.id, j.vertex, err)
				return
			}
			want, err := ref[j.id].EstimateContext(context.Background(), j.vertex, opts(j.seed))
			if err != nil {
				errCh <- err
				return
			}
			if got.Value != want.Value {
				errCh <- fmt.Errorf("%s vertex %d: multi-tenant %v != dedicated %v", j.id, j.vertex, got.Value, want.Value)
				return
			}
			errCh <- nil
		}(j)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Now ba is idle and karate keeps serving: creating one more karate
	// session must evict exactly the least-recently-used idle session,
	// freeing its memory, while the survivor still answers.
	if _, err := st.Get("karate"); err != nil { // make "ba" the LRU
		t.Fatal(err)
	}
	before := st.Stats().TotalBytes
	mustCreate(t, st, "karate2", edgeList(t, karateG))
	if _, err := st.Get("ba"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("idle session not evicted: %v", err)
	}
	after := st.Stats().TotalBytes
	if after != before-baCost+karateCost {
		t.Fatalf("eviction did not free memory: before %d after %d", before, after)
	}
	sess, release, err := st.Acquire("karate")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, err := sess.Engine().EstimateContext(context.Background(), 0, opts(7)); err != nil {
		t.Fatalf("survivor stopped serving: %v", err)
	}
}

// TestDeleteAbortsInFlightEstimates is the lifecycle-cancellation
// acceptance test on the store level: an estimate with a huge step
// budget, running under the session-coupled context, returns promptly
// with the session-closed cause when the session is deleted under it.
func TestDeleteAbortsInFlightEstimates(t *testing.T) {
	st := newStore(Config{})
	defer st.Close()
	sess := mustCreate(t, st, "big", edgeList(t, graph.BarabasiAlbert(3000, 3, rng.New(13))))

	ctx, stop := sess.RequestContext(context.Background())
	defer stop()
	type outcome struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan outcome, 1)
	go func() {
		start := time.Now()
		// DisableCache: every step pays a BFS, so an uncancelled run
		// is minutes of work.
		_, err := sess.Engine().EstimateContext(ctx, 0, core.Options{Steps: 100_000, DisableCache: true, Seed: 3})
		done <- outcome{err, time.Since(start)}
	}()
	time.Sleep(50 * time.Millisecond) // let the chain start
	if err := st.Delete("big"); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-done:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", out.err)
		}
		if cause := context.Cause(ctx); !errors.Is(cause, ErrSessionClosed) {
			t.Fatalf("cause = %v, want ErrSessionClosed", cause)
		}
		if out.elapsed > 10*time.Second {
			t.Fatalf("aborted estimate ran for %v", out.elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("estimate did not abort after session delete")
	}
}

func TestRequestContextMergesBothCancellations(t *testing.T) {
	st := newStore(Config{})
	defer st.Close()
	sess := mustCreate(t, st, "karate", karateList(t))

	// Request-side cancellation: cause stays the plain context error.
	reqCtx, reqCancel := context.WithCancel(context.Background())
	ctx, stop := sess.RequestContext(reqCtx)
	reqCancel()
	<-ctx.Done()
	if cause := context.Cause(ctx); !errors.Is(cause, context.Canceled) || errors.Is(cause, ErrSessionClosed) {
		t.Fatalf("request-cancel cause = %v", cause)
	}
	stop()

	// Session-side cancellation: cause is ErrSessionClosed.
	ctx2, stop2 := sess.RequestContext(context.Background())
	defer stop2()
	if err := st.Delete("karate"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx2.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("session close did not propagate to the request context")
	}
	if cause := context.Cause(ctx2); !errors.Is(cause, ErrSessionClosed) {
		t.Fatalf("session-close cause = %v", cause)
	}
}

func TestCreateFromGraphLabels(t *testing.T) {
	// Labels compose edge-list compaction with component extraction:
	// a two-component graph keeps the larger one and maps back to the
	// original labels.
	b := graph.NewBuilder(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idOf := []int64{100, 101, 102, 103, 104, 105, 106}
	st := newStore(Config{})
	defer st.Close()
	sess, err := st.CreateFromGraph("two", g, idOf, false)
	if err != nil {
		t.Fatal(err)
	}
	labels := sess.Labels()
	if len(labels) != 4 {
		t.Fatalf("labels %v", labels)
	}
	want := map[int64]bool{100: true, 101: true, 102: true, 103: true}
	for _, l := range labels {
		if !want[l] {
			t.Fatalf("unexpected label %d in %v", l, labels)
		}
	}
}
