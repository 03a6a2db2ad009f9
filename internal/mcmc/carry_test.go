package mcmc

import (
	"reflect"
	"testing"
	"time"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/sssp"
)

// carryTestGraph builds the block-structured graph the carry pins run
// on: an 8-cycle (one biconnected block, vertices 0–7), a bridge 7–8,
// and a tail path 8–9–10–11–12 (each edge its own block). Every σ on
// it is a power of two — the 8-cycle contributes σ=2 for antipodal
// pairs, everything else is unique — so dependency values are exact
// dyadic rationals and the block-invariance theorem holds bit-for-bit
// in float64, not just as reals. The chord {8,12} closes the tail into
// an odd (5-)cycle, keeping every σ there at 1.
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

// TestChainCarryAcrossVersions is the acceptance pin for memo
// carry-over: a mutation confined to the tail blocks must leave chains
// targeting the cycle block running on their warm memos — zero
// discards, at least one carry, and estimates bit-identical to a run
// on the unmutated graph (δ_v(target) is invariant for every state
// when the target's block is untouched, and the graph's power-of-two
// σ values make that exact in floating point).
func TestChainCarryAcrossVersions(t *testing.T) {
	g := carryTestGraph()
	const target, seed = 2, 99
	cfg := DefaultConfig(400)

	ref, err := runBC(g, target, cfg, seed, nil)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewBufferPool(g)
	warm, err := runBC(g, target, cfg, seed, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, ref) {
		t.Fatal("pooled warm run differs from unpooled reference")
	}

	// Mutate only the tail: the affected blocks are the path edges from
	// the cut vertex 8 outward; the cycle (and the target) stay clean.
	edits := []graph.Edit{{Op: graph.EditAdd, U: 8, V: 12}}
	affected := graph.AffectedByEdits(g, [][2]int{{8, 12}})
	for v := 0; v <= 7; v++ {
		if affected[v] {
			t.Fatalf("cycle vertex %d should not be affected", v)
		}
	}
	if !affected[10] {
		t.Fatal("tail should be affected")
	}
	next, _, err := graph.ApplyEditsOverlay(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	pool.Advance(next, affected)

	got, err := runBC(next, target, cfg, seed, pool)
	if err != nil {
		t.Fatal(err)
	}
	// Whether a buffer survives the sync.Pool round trip is up to the
	// runtime (the race detector drops Puts at random), so only the
	// stable half is pinned here: a carry-eligible mutation must never
	// discard. The deterministic carried/discarded counts are pinned in
	// TestMemoCarryDecision below.
	if _, discarded := pool.CarryStats(); discarded != 0 {
		t.Fatalf("carry-eligible mutation discarded %d memos", discarded)
	}
	// Same trajectory, same estimates — only the work accounting may
	// differ (affected states are re-evaluated instead of memo-served).
	gotCmp, refCmp := got, ref
	gotCmp.Evals, gotCmp.CacheHits = 0, 0
	refCmp.Evals, refCmp.CacheHits = 0, 0
	if !reflect.DeepEqual(gotCmp, refCmp) {
		t.Fatalf("carried estimate differs from unmutated reference:\n%+v\nvs\n%+v", got, ref)
	}
	// Cross-check the float-exactness claim without carry in the mix: a
	// cold pool on the mutated graph must agree too.
	fresh, err := runBC(next, target, cfg, seed, NewBufferPool(next))
	if err != nil {
		t.Fatal(err)
	}
	freshCmp := fresh
	freshCmp.Evals, freshCmp.CacheHits = 0, 0
	if !reflect.DeepEqual(freshCmp, refCmp) {
		t.Fatal("cold run on mutated graph differs from unmutated reference")
	}

	// Old snapshots stay serviceable from the same pool (backward
	// reseat): the estimate on g must still match the original.
	back, err := runBC(g, target, cfg, seed, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ref) {
		t.Fatal("old-snapshot estimate after Advance differs from reference")
	}

	// A mutation touching the target's block must refuse the carry.
	edits2 := []graph.Edit{{Op: graph.EditAdd, U: 1, V: 4}}
	affected2 := graph.AffectedByEdits(next, [][2]int{{1, 4}})
	if !affected2[target] {
		t.Fatal("target should be affected by the cycle chord")
	}
	next2, _, err := graph.ApplyEditsOverlay(next, edits2)
	if err != nil {
		t.Fatal(err)
	}
	pool.Advance(next2, affected2)
	got2, err := runBC(next2, target, cfg, seed, pool)
	if err != nil {
		t.Fatal(err)
	}
	fresh2, err := runBC(next2, target, cfg, seed, NewBufferPool(next2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, fresh2) {
		t.Fatal("post-discard estimate differs from cold pool")
	}
}

// TestMemoCarryDecision drives the carry rules with an explicit buffer
// (no sync.Pool in the loop, so every count is deterministic): a
// version bump with the target's block clean carries the memo and
// serves unaffected states from it; affected states re-evaluate; a
// bump touching the target discards.
func TestMemoCarryDecision(t *testing.T) {
	g := carryTestGraph()
	const target = 2
	pool := NewBufferPool(g)
	b := newChainBuffers(g)
	o1, err := newOracleBuffered(g, target, true, b, targetState{}, pool)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, g.N())
	for v := 0; v < g.N(); v++ {
		want[v] = o1.Dep(v)
	}

	next, _, err := graph.ApplyEditsOverlay(g, []graph.Edit{{Op: graph.EditAdd, U: 8, V: 12}})
	if err != nil {
		t.Fatal(err)
	}
	affected := graph.AffectedByEdits(g, [][2]int{{8, 12}})
	pool.Advance(next, affected)
	// What pool.get(next) would do for a recycled buffer.
	b.bfs.Reseat(next)
	b.g = next

	o2, err := newOracleBuffered(next, target, true, b, targetState{}, pool)
	if err != nil {
		t.Fatal(err)
	}
	carried, discarded := pool.CarryStats()
	if carried != 1 || discarded != 0 {
		t.Fatalf("carried=%d discarded=%d, want 1/0", carried, discarded)
	}
	for v := 0; v < g.N(); v++ {
		if got := o2.Dep(v); got != want[v] {
			t.Fatalf("v=%d: carried dep %v, want %v", v, got, want[v])
		}
	}
	nAffected := 0
	for _, a := range affected {
		if a {
			nAffected++
		}
	}
	if o2.Evals != nAffected || o2.Hits != g.N()-nAffected {
		t.Fatalf("evals=%d hits=%d, want %d/%d (affected states re-evaluate, rest hit)",
			o2.Evals, o2.Hits, nAffected, g.N()-nAffected)
	}

	// A chord through the target's block must refuse the carry.
	next2, _, err := graph.ApplyEditsOverlay(next, []graph.Edit{{Op: graph.EditAdd, U: 1, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	affected2 := graph.AffectedByEdits(next, [][2]int{{1, 4}})
	pool.Advance(next2, affected2)
	b.bfs.Reseat(next2)
	b.g = next2
	o3, err := newOracleBuffered(next2, target, true, b, targetState{}, pool)
	if err != nil {
		t.Fatal(err)
	}
	if carried, discarded = pool.CarryStats(); carried != 1 || discarded != 1 {
		t.Fatalf("carried=%d discarded=%d, want 1/1", carried, discarded)
	}
	refO, err := NewOracle(next2.Compact(), target, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if got, ref := o3.Dep(v), refO.Dep(v); got != ref {
			t.Fatalf("v=%d after discard: dep %v, want %v", v, got, ref)
		}
	}
	if o3.Hits != 0 {
		t.Fatalf("discarded memo should not serve hits, got %d", o3.Hits)
	}
}

// TestSetOracleCarryTo pins the joint-space analog: CarryTo keeps the
// memo when no target's block is affected (invalidating only affected
// rows), and drops it wholesale otherwise.
func TestSetOracleCarryTo(t *testing.T) {
	g := carryTestGraph()
	o, err := NewSetOracle(g, []int{2, 5}, true)
	if err != nil {
		t.Fatal(err)
	}
	refDeps := func(h *graph.Graph, v int) []float64 {
		ro, err := NewSetOracle(h, []int{2, 5}, false)
		if err != nil {
			t.Fatal(err)
		}
		return ro.Deps(v)
	}
	for v := 0; v < g.N(); v++ {
		o.Deps(v)
	}
	evalsAll := o.Evals

	next, _, err := graph.ApplyEditsOverlay(g, []graph.Edit{{Op: graph.EditAdd, U: 8, V: 12}})
	if err != nil {
		t.Fatal(err)
	}
	affected := graph.AffectedByEdits(g, [][2]int{{8, 12}})
	o.CarryTo(next, affected)
	nAffected := 0
	for v := 0; v < g.N(); v++ {
		if affected[v] {
			nAffected++
		}
		got := o.Deps(v)
		want := refDeps(next, v)
		if !reflect.DeepEqual(append([]float64(nil), got...), want) {
			t.Fatalf("v=%d: deps %v vs fresh %v", v, got, want)
		}
	}
	if o.Evals != evalsAll+nAffected {
		t.Fatalf("carried set oracle re-evaluated %d states, want %d (the affected ones)",
			o.Evals-evalsAll, nAffected)
	}

	// Affecting a target drops everything: every state re-evaluates.
	next2, _, err := graph.ApplyEditsOverlay(next, []graph.Edit{{Op: graph.EditAdd, U: 1, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	evalsBefore := o.Evals
	o.CarryTo(next2, graph.AffectedByEdits(next, [][2]int{{1, 4}}))
	for v := 0; v < g.N(); v++ {
		got := o.Deps(v)
		want := refDeps(next2, v)
		if !reflect.DeepEqual(append([]float64(nil), got...), want) {
			t.Fatalf("v=%d after drop: deps %v vs fresh %v", v, got, want)
		}
	}
	if o.Evals != evalsBefore+g.N() {
		t.Fatalf("dropped memo should re-evaluate all %d states, got %d", g.N(), o.Evals-evalsBefore)
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
	g1, rep, err := graph.ApplyEditsOverlay(g0, []graph.Edit{{Op: graph.EditAdd, U: 3, V: 599}})
	if err != nil {
		t.Fatal(err)
	}
	pool.Advance(g1, graph.AffectedByEdits(g1, rep.Pairs))
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
	g2, rep2, err := graph.ApplyEditsOverlay(g1, []graph.Edit{{Op: graph.EditAdd, U: 4, V: 598}})
	if err != nil {
		t.Fatal(err)
	}
	pool.Advance(g2, graph.AffectedByEdits(g2, rep2.Pairs))
	if snapshots, aliases := cached(); snapshots != 0 || aliases != 0 {
		t.Fatalf("after the second Advance: %d snapshots and %d alias tables still cached", snapshots, aliases)
	}
}

// CarryTo moves the oracle to next — another snapshot of the same
// undirected lineage — reseating its traversal kernel (O(overlay) for
// overlay siblings, full rebuild otherwise) and recomputing the
// per-target snapshots. affected is the vertex set of the blocks the
// intervening edits touched (nil = treat everything as affected).
//
// The memo survives when no target lies in an affected block: rows at
// affected states are invalidated individually and the rest stay valid
// — δ_v(r) only depends on the blocks between v and r, so entries with
// both endpoints outside the affected region are unchanged. If any
// target is affected the whole memo is dropped (one epoch bump).
func (o *SetOracle) CarryTo(next *graph.Graph, affected []bool) {
	switch {
	case o.bfs != nil:
		o.bfs.Reseat(next)
	case o.dij != nil:
		o.dij.Reseat(next)
	default:
		o.c = sssp.NewComputer(next)
	}
	o.g = next
	switch {
	case o.bfs != nil:
		o.tspds = o.tspds[:0]
		for _, r := range o.targets {
			o.tspds = append(o.tspds, sssp.NewTargetSPD(o.bfs, r))
		}
	case o.dij != nil:
		o.wtspds = o.wtspds[:0]
		for _, r := range o.targets {
			o.wtspds = append(o.wtspds, sssp.NewWeightedTargetSPD(o.dij, r))
		}
	}
	if o.memoStamp == nil {
		return
	}
	drop := affected == nil
	for _, r := range o.targets {
		if drop {
			break
		}
		drop = affected[r]
	}
	if drop {
		o.memoEpoch = bumpEpoch(o.memoStamp, o.memoEpoch)
		return
	}
	// Stamp 0 is permanently invalid: epochs start at 1 and skip 0 on
	// wrap, so zeroing a row's stamp retires it without an epoch bump.
	for v, a := range affected {
		if a {
			o.memoStamp[v] = 0
		}
	}
}

// CarryStats returns how many chain memos were carried across version
// bumps and how many were discarded because the target's block was
// affected.
func (p *BufferPool) CarryStats() (carried, discarded uint64) {
	return p.carried.Load(), p.discarded.Load()
}
