package mcmc

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/sssp"
)

// rowCase is one graph of the row property test. form pins what the
// table keeps: "packed" (a row for every vertex), "unpacked" (no row
// packs, so every evaluation takes the kernel path) or "" (not pinned).
type rowCase struct {
	name string
	g    *graph.Graph
	base *graph.Graph // non-nil: the table's kernels start seated here and reseat to g
	form string
}

// withChords returns g with a few chords added through the overlay
// path (weight w on weighted graphs), so kernels reseat onto it.
func withChords(t *testing.T, g *graph.Graph, w float64) *graph.Graph {
	t.Helper()
	var edits []graph.Edit
	for u := 0; len(edits) < 6 && u < g.N(); u += 7 {
		v := (u*13 + 29) % g.N()
		if u != v && !g.HasEdge(u, v) {
			edits = append(edits, graph.Edit{Op: graph.EditAdd, U: u, V: v, W: w})
		}
	}
	next, _, err := graph.ApplyEditsOverlay(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func rowCases(t *testing.T) []rowCase {
	t.Helper()
	er := graph.ErdosRenyiGNP(120, 0.05, rng.New(61))
	lc, _, err := graph.LargestComponent(er)
	if err != nil {
		t.Fatal(err)
	}
	ba := graph.BarabasiAlbert(200, 3, rng.New(60))
	igrid := graph.WithIntegerWeights(graph.Grid(12, 12), 1, 10, rng.New(62))
	return []rowCase{
		{name: "ba-hybrid", g: ba, form: "packed"},
		// C(58,29) > 2^53 paths corner to corner: classic BFS, no row packs.
		{name: "grid30", g: graph.Grid(30, 30), form: "unpacked"},
		// Either side of the packed σ limit: C(18,9) = 48,620 < 2^16 ≤
		// C(20,10) = 184,756.
		{name: "grid10", g: graph.Grid(10, 10), form: "packed"},
		{name: "grid11", g: graph.Grid(11, 11)},
		{name: "int-grid-dial", g: igrid, form: "packed"},
		{name: "fractional-calendar", g: graph.WithUniformWeights(graph.BarabasiAlbert(150, 3, rng.New(63)), 1, 10, rng.New(64)), form: "unpacked"},
		{name: "spread-heap", g: graph.WithUniformWeights(lc, 0.01, 10, rng.New(65)), form: "unpacked"},
		{name: "overlay-ba", g: withChords(t, ba, 0), base: ba},
		{name: "overlay-int-grid", g: withChords(t, igrid, 3), base: igrid},
	}
}

// TestSourceRowsMatchKernel is the table's bit-identity property: for
// every (v, r) pair, δ_v•(r) served through a table — a scan of v's
// row against r's decoded row, or, for a vertex whose traversal does
// not pack, the kernel path the table falls back to — equals, bit for
// bit, the kernel-served value: a traversal from v and the identity
// scan against r's snapshot, as a chain without a table computes it.
func TestSourceRowsMatchKernel(t *testing.T) {
	for _, tc := range rowCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			g, n := tc.g, tc.g.N()
			stride := 1
			switch {
			case n > 400:
				// grid30: no row packs, so every pair takes the kernel
				// path at one traversal each; a sample of targets covers it.
				stride = 7
				if testing.Short() {
					stride = 31
				}
			case testing.Short():
				stride = 7 // every v against a sample of targets
			}
			var targets []int
			for r := 0; r < n; r += stride {
				targets = append(targets, r)
			}
			// Kernel-served reference, on a fresh kernel for g:
			// want[i][v] = δ_v•(targets[i]).
			want := make([][]float64, len(targets))
			for i := range want {
				want[i] = make([]float64, n)
			}
			if routeFor(g) == routeBFSIdentity {
				k := sssp.NewBFS(g)
				ts := make([]*sssp.TargetSPD, len(targets))
				for i, r := range targets {
					ts[i] = sssp.NewTargetSPD(k, r)
				}
				for v := 0; v < n; v++ {
					k.Run(v)
					for i := range ts {
						want[i][v] = brandes.DependencyOnTargetIdentity(k, ts[i], v)
					}
				}
			} else {
				k := sssp.NewDijkstra(g)
				ts := make([]*sssp.WeightedTargetSPD, len(targets))
				for i, r := range targets {
					ts[i] = sssp.NewWeightedTargetSPD(k, r)
				}
				for v := 0; v < n; v++ {
					k.Run(v)
					for i := range ts {
						want[i][v] = brandes.DependencyOnTargetIdentityWeighted(k, ts[i], v)
					}
				}
			}

			// Table-served values through the oracle's table path, on
			// kernels seated as a chain's would be. The table is made
			// directly: grid30 is past BufferPool.SourceRows' size
			// rule, and its rows (none of which pack) hold no budget.
			table := &SourceRows{g: g, pool: NewBufferPool(g), rows: make([]atomic.Pointer[sssp.Row], n)}
			seat := g
			if tc.base != nil {
				seat = tc.base
			}
			b := newChainBuffers(seat)
			if seat != g {
				if b.bfs != nil {
					b.bfs.Reseat(g)
				} else {
					b.dij.Reseat(g)
				}
				b.g = g
			}
			packed := 0
			for i, r := range targets {
				o, err := newOracleBuffered(g, r, b, targetState{rows: table}, nil)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < n; v++ {
					if got := o.Dep(v); math.Float64bits(got) != math.Float64bits(want[i][v]) {
						t.Fatalf("δ_%d•(%d): table %v (%#x), kernel %v (%#x)", v, r, got, math.Float64bits(got), want[i][v], math.Float64bits(want[i][v]))
					}
				}
				// The first target's pass fills every slot, so from then
				// on exactly the packed vertices are row-served.
				packed = 0
				for v := range table.rows {
					switch row := table.rows[v].Load(); row {
					case nil:
						t.Fatalf("vertex %d: no row and no marker after an evaluation", v)
					case unpacked:
					default:
						packed++
					}
				}
				if o.rowEvals != packed {
					t.Fatalf("target %d: %d evaluations row-served, %d rows packed", r, o.rowEvals, packed)
				}
			}
			built, _ := table.pool.SourceRowStats()
			if uint64(packed) != built || table.held.Load() != int64(4*n*packed) || table.pool.rowBytes.Load() != table.held.Load() {
				t.Fatalf("%d rows packed, %d built, table holds %d bytes, pool %d", packed, built, table.held.Load(), table.pool.rowBytes.Load())
			}
			switch {
			case tc.form == "packed" && packed != n:
				t.Fatalf("%d of %d rows packed, want all", packed, n)
			case tc.form == "unpacked" && packed != 0:
				t.Fatalf("%d of %d rows packed, want none", packed, n)
			case tc.name == "grid11" && (packed == 0 || packed == n):
				t.Fatalf("%d of %d rows packed, want a mix (σ crosses 2^16 on some rows)", packed, n)
			}
		})
	}
}

// TestSourceRowsSizeRule pins when BufferPool.SourceRows makes a
// table: only when the row budget holds packed rows for at least half
// the vertices (n ≤ 768 unweighted, n ≤ 1024 weighted), and never on a
// directed graph.
func TestSourceRowsSizeRule(t *testing.T) {
	weighted := func(n int) *graph.Graph {
		return graph.WithIntegerWeights(graph.BarabasiAlbert(n, 2, rng.New(1)), 1, 9, rng.New(2))
	}
	b := graph.NewDirectedBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	directed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"unweighted-768", graph.BarabasiAlbert(768, 2, rng.New(1)), true},
		{"unweighted-769", graph.BarabasiAlbert(769, 2, rng.New(1)), false},
		{"weighted-1024", weighted(1024), true},
		{"weighted-1025", weighted(1025), false},
		{"directed", directed, false},
	} {
		pool := NewBufferPool(tc.g)
		table := pool.SourceRows(tc.g)
		if got := table != nil; got != tc.want {
			t.Fatalf("%s: table made %v, want %v", tc.name, got, tc.want)
		}
		table.Release()
		if b := pool.rowBytes.Load(); b != 0 {
			t.Fatalf("%s: pool holds %d bytes after Release", tc.name, b)
		}
	}
}

// TestSourceRowsBudget runs tables past the pool's row budget: one
// table alone, one table with two holders, and the tables of two
// snapshots filled at once from several goroutines. The bytes all live
// tables hold never exceed targetSPDCacheSize float64 snapshots of g,
// a row that finds the budget spent is evaluated on the kernel path
// with the same values, the last Release hands the bytes back, and the
// counters account for every row.
func TestSourceRowsBudget(t *testing.T) {
	g := graph.BarabasiAlbert(600, 3, rng.New(66))
	n := g.N()
	limit := int64(targetSPDCacheSize * 12 * n)
	if rowBudget(g) != limit {
		t.Fatalf("budget %d, want %d", rowBudget(g), limit)
	}
	pool := NewBufferPool(g)
	cfg := Config{Steps: 256, InitState: -1, CollectProposalTrace: true}
	// check runs the chain on r through table (pool's budget) and holds
	// it to a plain run on a pool of its own.
	check := func(table *SourceRows, r int) error {
		got, err := Run(context.Background(), table.g, table.BC(r), cfg, uint64(r), 1, pool)
		if err != nil {
			return err
		}
		want, err := Run(context.Background(), table.g, BC(r), cfg, uint64(r), 1, nil)
		if err != nil {
			return err
		}
		if math.Float64bits(got.Combined.ProposalSide) != math.Float64bits(want.Combined.ProposalSide) || got.Combined.Evals != want.Combined.Evals {
			return fmt.Errorf("target %d: table run %v (%d evals), plain run %v (%d evals)", r, got.Combined.ProposalSide, got.Combined.Evals, want.Combined.ProposalSide, want.Combined.Evals)
		}
		if b := pool.rowBytes.Load(); b > limit {
			return fmt.Errorf("live tables hold %d bytes, budget %d", b, limit)
		}
		return nil
	}
	held := func(table *SourceRows) int {
		rows := 0
		for v := range table.rows {
			if table.rows[v].Load() != nil {
				rows++
			}
		}
		return rows
	}

	step := 5
	if testing.Short() {
		step = 15
	}

	// One table alone fills the budget: it holds as many rows as fit
	// beside its slot array, short of n.
	first := pool.SourceRows(g)
	for r := 0; r < n; r += step {
		if err := check(first, r); err != nil {
			t.Fatal(err)
		}
	}
	rows := held(first)
	built, evals := pool.SourceRowStats()
	if fit := int((limit - int64(8*n)) / int64(4*n)); rows != fit || fit >= n || uint64(rows) != built || evals == 0 {
		t.Fatalf("%d rows held (%d fit) of %d, %d built, %d row evals: want the budget to stop the table", rows, fit, n, built, evals)
	}
	if b, want := first.held.Load(), int64(8*n+4*n*rows); b != want || pool.rowBytes.Load() != b {
		t.Fatalf("table holds %d bytes (pool %d), want %d for %d rows", b, pool.rowBytes.Load(), want, rows)
	}

	// A second holder of the snapshot shares the table; the bytes go
	// back with the last Release only.
	if second := pool.SourceRows(g); second != first {
		t.Fatal("a second holder of one snapshot got its own table")
	}
	first.Release()
	if b := pool.rowBytes.Load(); b != first.held.Load() || b == 0 {
		t.Fatalf("pool holds %d bytes, table %d, after the first of two Releases", b, first.held.Load())
	}
	first.Release()
	if b := pool.rowBytes.Load(); b != 0 {
		t.Fatalf("pool holds %d bytes after the last Release", b)
	}
	if pool.SourceRows(g) == first {
		t.Fatal("a released table was handed out again")
	}
	pool.rowTables[g].Release()

	// The tables of two snapshots at once, each filled from two
	// goroutines, share the one budget.
	tables := []*SourceRows{pool.SourceRows(g), pool.SourceRows(withChords(t, g, 0))}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := w; r < n; r += 4 * step {
				if err := check(tables[w%2], r); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if b, sum := pool.rowBytes.Load(), tables[0].held.Load()+tables[1].held.Load(); b != sum || b > limit {
		t.Fatalf("pool holds %d bytes, tables %d, budget %d", b, sum, limit)
	}
	tables[0].Release()
	tables[1].Release()
	if b, live := pool.rowBytes.Load(), len(pool.rowTables); b != 0 || live != 0 {
		t.Fatalf("pool holds %d bytes in %d tables after every table was released", b, live)
	}
}
