package sssp

import (
	"testing"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// checkAgainstComputer verifies one BFS run against the reference
// Computer traversal from the same source: identical reachability,
// distances, σ counts, and a level-equivalent visit order.
func checkAgainstComputer(t *testing.T, g *graph.Graph, b *BFS, source int) {
	t.Helper()
	ref := NewComputer(g).Run(source)
	b.Run(source)
	n := g.N()
	reached := 0
	for v := 0; v < n; v++ {
		if ref.Dist[v] == Unreachable {
			if b.Reached(v) {
				t.Fatalf("source %d: vertex %d reached by kernel, unreachable by reference", source, v)
			}
			continue
		}
		reached++
		if !b.Reached(v) {
			t.Fatalf("source %d: vertex %d unreached by kernel", source, v)
		}
		if float64(b.DistOf(v)) != ref.Dist[v] {
			t.Fatalf("source %d: dist[%d] = %d want %v", source, v, b.DistOf(v), ref.Dist[v])
		}
		if b.SigmaOf(v) != ref.Sigma[v] {
			t.Fatalf("source %d: sigma[%d] = %v want %v", source, v, b.SigmaOf(v), ref.Sigma[v])
		}
	}
	order := b.Order()
	if len(order) != reached {
		t.Fatalf("source %d: order has %d vertices, %d reached", source, len(order), reached)
	}
	if int(order[0]) != source {
		t.Fatalf("source %d: order starts at %d", source, order[0])
	}
	prev := int32(0)
	for _, v := range order {
		d := b.DistOf(int(v))
		if d < prev {
			t.Fatalf("source %d: order not by non-decreasing distance", source)
		}
		prev = d
	}
}

func TestBFSMatchesComputer(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(9),
		graph.Star(12),
		graph.Cycle(10),
		graph.Grid(6, 7),
		graph.KarateClub(),
		graph.BarabasiAlbert(120, 3, rng.New(7)),
		graph.ErdosRenyiGNP(60, 0.08, rng.New(9)), // likely disconnected
	}
	for gi, g := range graphs {
		b := NewBFS(g)
		for s := 0; s < g.N(); s++ {
			checkAgainstComputer(t, g, b, s)
		}
		_ = gi
	}
}

// TestBFSEpochReuse runs the kernel thousands of times from varying
// sources on one instance: any stale state leaking across epochs would
// corrupt some later run.
func TestBFSEpochReuse(t *testing.T) {
	g := graph.BarabasiAlbert(80, 2, rng.New(11))
	b := NewBFS(g)
	for i := 0; i < 3000; i++ {
		s := i % g.N()
		b.Run(s)
		if b.DistOf(s) != 0 || b.SigmaOf(s) != 1 {
			t.Fatalf("run %d: source state wrong", i)
		}
	}
	// Full check after heavy reuse.
	checkAgainstComputer(t, g, b, 5)
}

// TestBFSEpochWrap forces the 2^32 epoch wrap and checks the one-time
// clear keeps results correct.
func TestBFSEpochWrap(t *testing.T) {
	g := graph.Path(6)
	b := NewBFS(g)
	b.Run(0)
	b.epoch = ^uint32(0) // next Run wraps
	checkAgainstComputer(t, g, b, 3)
	checkAgainstComputer(t, g, b, 5)
}

func TestBFSWeightedPanics(t *testing.T) {
	g := graph.WithUniformWeights(graph.Path(4), 1, 5, rng.New(3))
	defer func() {
		if recover() == nil {
			t.Fatal("NewBFS accepted a weighted graph")
		}
	}()
	NewBFS(g)
}

func TestBFSSourceRangePanics(t *testing.T) {
	b := NewBFS(graph.Path(4))
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted an out-of-range source")
		}
	}()
	b.Run(4)
}

func TestTargetSPDSnapshot(t *testing.T) {
	// Two components: 0-1-2 path plus 3-4 edge.
	g, err := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBFS(g)
	ts := NewTargetSPD(b, 1)
	if ts.Target != 1 {
		t.Fatalf("target %d", ts.Target)
	}
	wantDist := []int32{1, 0, 1, Unreachable, Unreachable}
	for v, want := range wantDist {
		if ts.Dist[v] != want {
			t.Fatalf("dist[%d] = %d want %d", v, ts.Dist[v], want)
		}
	}
	if ts.Sigma[0] != 1 || ts.Sigma[1] != 1 || ts.Sigma[2] != 1 {
		t.Fatalf("sigma %v", ts.Sigma)
	}
	// The snapshot must survive later runs of b.
	b.Run(3)
	if ts.Dist[0] != 1 || ts.Dist[3] != Unreachable {
		t.Fatal("snapshot mutated by a later run")
	}
}

func BenchmarkBFSKernel(b *testing.B) {
	g := graph.BarabasiAlbert(2000, 3, rng.New(1))
	k := NewBFS(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(i % g.N())
	}
}

func BenchmarkComputerBFS(b *testing.B) {
	g := graph.BarabasiAlbert(2000, 3, rng.New(1))
	c := NewComputer(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(i % g.N())
	}
}

// Order returns the vertices reached by the latest Run in BFS
// (non-decreasing distance) order, source first. Positions within one
// level are unspecified: the classic kernel yields discovery order,
// the direction-optimizing one ascending slot order on bottom-up
// levels. No estimator consumes intra-level positions.
func (b *BFS) Order() []int32 {
	if b.ord == nil {
		return b.queue
	}
	order := make([]int32, len(b.queue))
	for i, s := range b.queue {
		order[i] = b.ord.Inv[s]
	}
	return order
}
