package mcmc

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// cancelTestGraph is big enough that an uncacheable chain pays a real
// BFS per step: 100k steps × O(m) traversals would run for minutes,
// so a cancelled run finishing in (generous) single-digit seconds
// demonstrates the abort actually cut the loop short.
func cancelTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return graph.BarabasiAlbert(3000, 3, rng.New(17))
}

// hugeChainConfig disables memoisation so every step costs a full
// dependency evaluation — the worst case the cancellation check exists
// for.
func hugeChainConfig() Config {
	cfg := DefaultConfig(100_000)
	cfg.DisableCache = true
	return cfg
}

func TestEstimateBCContextCancelledBeforeStart(t *testing.T) {
	g := graph.KarateClub()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, g, BC(0), DefaultConfig(1000), 1, 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled single chain: err = %v, want context.Canceled", err)
	}
	if _, err := Run(ctx, g, BC(0), DefaultConfig(1000), 1, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled parallel chains: err = %v, want context.Canceled", err)
	}
}

func TestEstimateBCContextAbortsSingleChainPromptly(t *testing.T) {
	g := cancelTestGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, g, BC(0), hugeChainConfig(), 7, 1, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The uncancelled run is minutes of BFS work; anything in seconds
	// proves the loop aborted. Generous bound for slow CI machines.
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled chain ran for %v", elapsed)
	}
}

func TestEstimateBCContextAbortsParallelChainsPromptly(t *testing.T) {
	g := cancelTestGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, g, BC(0), hugeChainConfig(), 9, 4, NewBufferPool(g))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled parallel run took %v", elapsed)
	}
}

func TestContextVariantsAreBitIdenticalWhenUncancelled(t *testing.T) {
	// The cancellation check must never perturb the chain: a context
	// that never fires yields exactly the context-free result.
	g := graph.KarateClub()
	cfg := DefaultConfig(2000)
	want, err := Run(context.Background(), g, BC(0), cfg, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, err := Run(ctx, g, BC(0), cfg, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("context-threaded run differs:\ngot  %+v\nwant %+v", got, want)
	}

	wantMulti, err := Run(context.Background(), g, BC(0), cfg, 5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotMulti, err := Run(ctx, g, BC(0), cfg, 5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotMulti.Combined, wantMulti.Combined) {
		t.Fatalf("parallel context-threaded run differs:\ngot  %+v\nwant %+v", gotMulti.Combined, wantMulti.Combined)
	}
}
