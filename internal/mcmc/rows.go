package mcmc

import (
	"sync/atomic"

	"bcmh/internal/graph"
	"bcmh/internal/sssp"
)

// SourceRows is a table of per-vertex shortest-path rows (sssp.Row) on
// one graph snapshot, filled on first demand and shared by every chain
// run through it. It is what makes many chains on one snapshot cheap:
// a chain's memo miss at v reads v's row and scans it against the
// chain's target side (brandes.DependencyOnTargetRow), so each vertex
// is traversed at most once per table instead of once per chain that
// evaluates it. In an undirected graph v's row is also v's target
// side, so a chain on r decodes r's row instead of taking a snapshot
// from the pool's LRU — a table run never touches that LRU.
//
// A row is built by the first chain that needs it, on that chain's own
// kernel (already seated on the snapshot), and published once with a
// compare-and-swap; a chain that loses the race drops its copy and
// reads the winner's. Every kernel seated on one snapshot computes the
// same row, so which chain builds it changes only the cost, never a
// value, and results stay deterministic under any scheduling.
//
// Rows are packed (4 bytes per vertex, see sssp.Row). A vertex whose
// traversal does not pack — fractional weights, σ ≥ 2^16 — keeps an
// empty marker in its slot, and chains evaluate it as a run without a
// table would: a traversal and the kernel scan (the traversal that
// found it unpackable serves the evaluation it was run for). A target
// without a row takes a target snapshot on the chain's kernel. So
// graphs whose rows do not pack gain nothing, and lose one scan of
// each such vertex's traversal.
//
// A table belongs to one graph snapshot on one BufferPool and is
// shared by everyone ranking that snapshot at the same time:
// BufferPool.SourceRows hands out the live table of a snapshot, or
// makes one, and each holder calls Release once its chains have
// returned; the last Release drops the table. So concurrent rank jobs
// on one snapshot build each row once between them, and no table
// outlives the jobs that use it.
//
// Memory: a pool's live tables (one per snapshot in use) share one
// byte budget, the bytes the pool's target LRU may already hold,
// targetSPDCacheSize float64 snapshots of g (12n bytes each on
// unweighted graphs, 16n on weighted ones). A table reserves its slot
// array when made and each row before building it, and the last
// Release returns them, so however many jobs run at once, their rows
// add at most that much beside the LRU. A row that finds the budget
// spent is not built and its vertex is evaluated by a traversal.
// BufferPool.SourceRows makes no table when the budget cannot hold a
// row for at least half of g's vertices: most memo misses would then
// find no row, and the memory would buy little.
//
// Safe for concurrent use.
type SourceRows struct {
	g    *graph.Graph
	pool *BufferPool
	rows []atomic.Pointer[sssp.Row]
	held atomic.Int64 // bytes reserved from pool's budget: slot array plus published rows
	refs int          // holders; guarded by pool.rowsMtx
}

// unpacked fills the slot of a vertex whose traversal does not pack,
// so that no chain builds it again.
var unpacked = new(sssp.Row)

// rowBudget is the byte budget the live tables of one pool share on g:
// targetSPDCacheSize float64 target snapshots of g.
func rowBudget(g *graph.Graph) int64 {
	perVertex := int64(12) // one TargetSPD entry: int32 distance, float64 σ
	if routeFor(g) == routeDijkstraIdentity {
		perVertex = 16 // one WeightedTargetSPD entry: float64 distance and σ
	}
	return targetSPDCacheSize * perVertex * int64(g.N())
}

// SourceRows returns the row table of the snapshot g: the live one its
// other holders share, or a new one drawing on the pool's row budget.
// It returns nil when a table would not pay: on a directed graph (its
// Brandes route has no identity scan for a row to serve), when the
// budget holds packed rows for fewer than half of g's vertices, or
// when the live tables of other snapshots leave no room for the slot
// array. BC on a nil table is plain BC, and Release a no-op. Call
// Release once no chain of yours runs through the table any more.
func (p *BufferPool) SourceRows(g *graph.Graph) *SourceRows {
	n := int64(g.N())
	if routeFor(g) == routeBrandes || 2*rowBudget(g) < 4*n*n {
		return nil
	}
	p.rowsMtx.Lock()
	defer p.rowsMtx.Unlock()
	if t := p.rowTables[g]; t != nil {
		t.refs++
		return t
	}
	if !p.reserveRows(g, 8*n) {
		return nil
	}
	t := &SourceRows{g: g, pool: p, rows: make([]atomic.Pointer[sssp.Row], n), refs: 1}
	t.held.Store(8 * n)
	if p.rowTables == nil {
		p.rowTables = make(map[*graph.Graph]*SourceRows)
	}
	p.rowTables[g] = t
	return t
}

// Release gives up one hold on the table. The last one drops the
// table from its pool and returns its bytes to the row budget.
func (t *SourceRows) Release() {
	if t == nil {
		return
	}
	p := t.pool
	p.rowsMtx.Lock()
	defer p.rowsMtx.Unlock()
	if t.refs--; t.refs == 0 {
		delete(p.rowTables, t.g)
		p.rowBytes.Add(-t.held.Swap(0))
	}
}

// BC is the betweenness source of r whose chains read and fill the
// table: each chain's target side is r's row, and its memo misses are
// row scans. Values are bit-identical to the plain BC(r). On a nil
// table it is BC(r).
func (t *SourceRows) BC(r int) Source {
	return Source{target: r, rows: t}
}

// row returns v's row, building it on bfs (BFS route) or dij (Dijkstra
// route) when no chain has yet. It returns nil when v's traversal does
// not pack or the pool's row budget is spent; ran then reports whether
// this call left the kernel holding a traversal from v.
func (t *SourceRows) row(v int, bfs *sssp.BFS, dij *sssp.Dijkstra) (row *sssp.Row, ran bool) {
	switch row = t.rows[v].Load(); row {
	case nil:
	case unpacked:
		return nil, false
	default:
		return row, false
	}
	size := 4 * int64(t.g.N())
	if !t.pool.reserveRows(t.g, size) {
		return nil, false
	}
	if bfs != nil {
		row = sssp.NewRow(bfs, v)
	} else {
		row = sssp.NewWeightedRow(dij, v)
	}
	if row == nil {
		t.pool.rowBytes.Add(-size)
		t.rows[v].Store(unpacked)
		return nil, true
	}
	if !t.rows[v].CompareAndSwap(nil, row) {
		t.pool.rowBytes.Add(-size)
		return t.rows[v].Load(), false
	}
	t.held.Add(size)
	t.pool.rowsBuilt.Add(1)
	return row, false
}
