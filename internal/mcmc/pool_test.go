package mcmc

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/sssp"
)

// TestColdTargetAllocatesNoKernel pins that a target snapshot is taken
// on a pooled kernel. On BA-2000, once a warm-up run on another target
// has left a buffer set in the pool, a fixed-step run on a cold target
// allocates the snapshot (12n bytes) plus the run's own small change:
// under 20n bytes, where a fresh kernel (private CSR, tag, σ and queue
// arrays) took the run to ~72n. sync.Pool may drop the buffer set (at
// a GC, when the goroutine moves to another P, and at random under the
// race detector), so the check takes the least of several cold targets.
func TestColdTargetAllocatesNoKernel(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 3, rng.New(17))
	n := g.N()
	pool := NewBufferPool(g)
	cfg := DefaultConfig(128)
	if _, err := runBC(g, 0, cfg, 1, pool); err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for r := 1; r <= 12; r++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := runBC(g, r, cfg, uint64(r), pool); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	t.Logf("least cold-target run: %d bytes (%.1f per vertex)", least, float64(least)/float64(n))
	if least >= 20*uint64(n) {
		t.Fatalf("a cold-target run allocated %d bytes (%.1f per vertex), want under 20n", least, float64(least)/float64(n))
	}
}

// TestPooledSnapshotMatchesFresh holds a snapshot taken on a pooled
// kernel, reseated from the version it last served, to the snapshot a
// fresh kernel takes on the new version, on both identity routes.
func TestPooledSnapshotMatchesFresh(t *testing.T) {
	ba := graph.BarabasiAlbert(300, 3, rng.New(23))
	for _, g := range []*graph.Graph{ba, graph.WithUniformWeights(ba, 1, 10, rng.New(24))} {
		pool := NewBufferPool(g)
		if _, err := runBC(g, 0, DefaultConfig(32), 1, pool); err != nil {
			t.Fatal(err)
		}
		var edits []graph.Edit
		for v := 1; len(edits) < 4; v++ {
			if !g.HasEdge(0, v) {
				edits = append(edits, graph.Edit{Op: graph.EditAdd, U: 0, V: v})
			}
		}
		g2, _, err := graph.ApplyEditsOverlay(g, edits)
		if err != nil {
			t.Fatal(err)
		}
		pool.Advance(g2)
		for _, r := range []int{0, 7, 150} {
			got := pool.chainTarget(g2, r)
			if g.Weighted() {
				want := sssp.NewWeightedTargetSPD(sssp.NewDijkstra(g2), r)
				if !reflect.DeepEqual(got.wspd, want) {
					t.Fatalf("weighted target %d: pooled snapshot differs from a fresh kernel's", r)
				}
			} else if want := sssp.NewTargetSPD(sssp.NewBFS(g2), r); !reflect.DeepEqual(got.spd, want) {
				t.Fatalf("target %d: pooled snapshot differs from a fresh kernel's", r)
			}
		}
	}
}
