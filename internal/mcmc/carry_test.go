package mcmc

import (
	"context"
	"reflect"
	"testing"
	"time"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// carryTestGraph builds a block-structured graph: an 8-cycle (one
// biconnected block, vertices 0–7), a bridge 7–8, and a tail path
// 8–9–10–11–12 (each edge its own block). Every σ on it is a power of
// two — the 8-cycle contributes σ=2 for antipodal pairs, everything
// else is unique — so dependency values are exact dyadic rationals and
// the block-invariance theorem holds bit-for-bit in float64, not just
// as reals. The chord {8,12} closes the tail into an odd (5-)cycle,
// keeping every σ there at 1 and δ_v•(r) unchanged for every target r
// on the cycle.
func carryTestGraph() *graph.Graph {
	b := graph.NewBuilder(13)
	for i := 0; i < 8; i++ {
		b.AddEdge(i, (i+1)%8)
	}
	for i := 8; i < 12; i++ {
		b.AddEdge(i-1, i)
	}
	b.AddEdge(11, 12)
	return b.MustBuild()
}

// TestChainCountsIgnoreBufferHistory pins that a chain's Result, Evals
// and CacheHits included, does not depend on what its buffers served
// before. One buffer set runs a chain on target 2, then, after the
// block-separated edit {8,12} and a reseat, the same chain on the new
// snapshot; that second chain must match a cold pool's run field for
// field. A memo carried across the version bump would make the second
// chain's counts depend on what the first one evaluated.
func TestChainCountsIgnoreBufferHistory(t *testing.T) {
	g := carryTestGraph()
	const target, seed = 2, 99
	cfg := DefaultConfig(400)
	pool := NewBufferPool(g)
	b := newChainBuffers(g)
	run := func(h *graph.Graph) Result {
		t.Helper()
		o, err := newOracleBuffered(h, target, b, pool.chainTarget(h, target), pool)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runSingleChain(context.Background(), h, o, cfg, rng.New(seed), b, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(g)

	next, _, err := graph.ApplyEditsOverlay(g, []graph.Edit{{Op: graph.EditAdd, U: 8, V: 12}})
	if err != nil {
		t.Fatal(err)
	}
	pool.Advance(next)
	// What pool.get(next) does for a recycled buffer set.
	b.bfs.Reseat(next)
	b.g = next
	got := run(next)

	want, err := runBC(next, target, cfg, seed, NewBufferPool(next))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chain on reused buffers differs from a cold pool's:\n got %+v\nwant %+v", got, want)
	}
}

// TestAdvanceDropsSupersededSnapshots pins the pool's memory bound
// across versions: Advance drops the cached target snapshots and alias
// tables of older versions, while a chain that set up on a dropped
// entry before the swap keeps its own pointers and still matches its
// unpooled run bit for bit. A straggler that starts on the superseded
// snapshot afterwards rebuilds its entry (matching too), and the next
// Advance drops that entry again.
func TestAdvanceDropsSupersededSnapshots(t *testing.T) {
	g0 := graph.BarabasiAlbert(600, 3, rng.New(71))
	pool := NewBufferPool(g0)
	cfg := DefaultConfig(8000)
	cfg.DisableCache = true // every step traverses: the chain stays in flight
	cfg.DegreeProposal = true
	const r, seed = 0, 5
	want, err := runBC(g0, r, cfg, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 8; v++ {
		pool.TargetSnapshot(g0, v)
	}
	cached := func() (snapshots, aliases int) {
		pool.tspdMtx.Lock()
		snapshots = pool.tspdLRU.Len()
		pool.tspdMtx.Unlock()
		pool.aliasMtx.Lock()
		aliases = len(pool.aliases)
		pool.aliasMtx.Unlock()
		return snapshots, aliases
	}

	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := runBC(g0, r, cfg, seed, pool)
		done <- outcome{res, err}
	}()
	// The chain looks up its target entry, then its alias table; once
	// both are cached it holds both pointers for the rest of its run.
	for {
		if snapshots, aliases := cached(); snapshots == 9 && aliases == 1 {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	g1, _, err := graph.ApplyEditsOverlay(g0, []graph.Edit{{Op: graph.EditAdd, U: 3, V: 599}})
	if err != nil {
		t.Fatal(err)
	}
	pool.Advance(g1)
	if snapshots, aliases := cached(); snapshots != 0 || aliases != 0 {
		t.Fatalf("after Advance: %d snapshots and %d alias tables of version 0 still cached", snapshots, aliases)
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !reflect.DeepEqual(out.res, want) {
		t.Fatalf("chain across Advance differs from its unpooled run:\n got %+v\nwant %+v", out.res, want)
	}

	// A straggler on the superseded snapshot rebuilds what it needs.
	cfg.Steps = 500
	want2, err := runBC(g0, 1, cfg, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := runBC(g0, 1, cfg, seed, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want2) {
		t.Fatalf("straggler differs from its unpooled run:\n got %+v\nwant %+v", got2, want2)
	}
	if snapshots, aliases := cached(); snapshots != 1 || aliases != 1 {
		t.Fatalf("straggler cached %d snapshots and %d alias tables, want 1 and 1", snapshots, aliases)
	}
	g2, _, err := graph.ApplyEditsOverlay(g1, []graph.Edit{{Op: graph.EditAdd, U: 4, V: 598}})
	if err != nil {
		t.Fatal(err)
	}
	pool.Advance(g2)
	if snapshots, aliases := cached(); snapshots != 0 || aliases != 0 {
		t.Fatalf("after the second Advance: %d snapshots and %d alias tables still cached", snapshots, aliases)
	}
}
