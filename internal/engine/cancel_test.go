package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"bcmh/internal/core"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// newBigEngine builds an engine whose chains cost a real BFS per step
// (memoisation disabled), so cancellation timing is observable.
func newBigEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := New(graph.BarabasiAlbert(3000, 3, rng.New(21)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// hugeOpts is a step budget that would run for minutes uncancelled.
func hugeOpts(chains int) core.Options {
	return core.Options{Steps: 100_000, Chains: chains, Seed: 11, DisableCache: true}
}

func TestEstimateContextAbortsPromptly(t *testing.T) {
	e := newBigEngine(t)
	for _, chains := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		_, err := e.EstimateContext(ctx, 0, hugeOpts(chains))
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("chains=%d: err = %v, want context.DeadlineExceeded", chains, err)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("chains=%d: cancelled estimate ran for %v", chains, elapsed)
		}
	}
	// Aborted runs must not be cached.
	if st := e.Stats(); st.Estimates != 0 || st.ResultCached != 0 {
		t.Fatalf("aborted estimates leaked into the caches: %+v", st)
	}
}

func TestEstimateBatchContextAbortsPromptly(t *testing.T) {
	e := newBigEngine(t)
	targets := make([]int, 32)
	for i := range targets {
		targets[i] = i
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.EstimateBatchContext(ctx, targets, BatchOptions{Estimation: hugeOpts(1), Seed: 2, Concurrency: 4})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled batch ran for %v", elapsed)
	}
}

func TestExactBCOfContextCancellableWhileMuComputes(t *testing.T) {
	// The O(nm) μ derivation behind /exact and planned-steps requests
	// must not pin a cancelled requester: the waiter returns with the
	// context error while the shared computation completes in the
	// background and still warms the cache.
	e := newBigEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := e.MuStatsContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled exact query waited %v", elapsed)
	}
	// The abandoned computation still lands in the μ-cache.
	if _, err := e.MuStatsContext(context.Background(), 0); err != nil {
		t.Fatalf("background μ computation failed: %v", err)
	}
	if st := e.Stats(); st.MuMisses != 1 || st.MuHits != 1 {
		t.Fatalf("abandoned μ computation not shared: %+v", st)
	}
}

func TestLifecycleCancelAbortsDetachedMuComputation(t *testing.T) {
	// The detached μ computation is bounded by the engine's lifecycle
	// context (the store passes the session context): killing the
	// lifecycle mid-computation stops the O(nm) work instead of letting
	// it warm a cache nobody can reach.
	lctx, lcancel := context.WithCancel(context.Background())
	e, err := NewWithConfig(graph.BarabasiAlbert(3000, 3, rng.New(21)), Config{Lifecycle: lctx})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.MuStatsContext(context.Background(), 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the computation start
	lcancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("μ computation survived lifecycle cancellation")
	}
}

func TestEstimateContextCacheHitSurvivesCancelledContext(t *testing.T) {
	// A result already in the LRU is served even under a dead context:
	// the lookup costs nothing, and callers retrying after a timeout
	// should benefit from work that did complete earlier.
	e := newKarateEngine(t)
	opts := plannedOpts()
	opts.Seed = 12
	want, err := e.EstimateContext(context.Background(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := e.EstimateContext(ctx, 0, opts)
	if err != nil {
		t.Fatalf("cache hit under cancelled context errored: %v", err)
	}
	if got.Value != want.Value {
		t.Fatalf("cache hit differs: %v vs %v", got.Value, want.Value)
	}
}
