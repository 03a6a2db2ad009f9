package mcmc

import (
	"reflect"
	"testing"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
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

	ref, err := EstimateBCPooled(g, target, cfg, rng.New(seed), nil)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewBufferPool(g)
	warm, err := EstimateBCPooled(g, target, cfg, rng.New(seed), pool)
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

	got, err := EstimateBCPooled(next, target, cfg, rng.New(seed), pool)
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
	fresh, err := EstimateBCPooled(next, target, cfg, rng.New(seed), NewBufferPool(next))
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
	back, err := EstimateBCPooled(g, target, cfg, rng.New(seed), pool)
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
	got2, err := EstimateBCPooled(next2, target, cfg, rng.New(seed), pool)
	if err != nil {
		t.Fatal(err)
	}
	fresh2, err := EstimateBCPooled(next2, target, cfg, rng.New(seed), NewBufferPool(next2))
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
