package exp

import (
	"fmt"
	"sort"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// Dataset is a named graph workload. Build must return a connected
// undirected graph (generators that can disconnect are wrapped with
// largest-component extraction).
type Dataset struct {
	Name   string
	Family string // structural regime, for the T1 inventory
	Build  func(scale Scale, seed uint64) *graph.Graph
}

// Scale selects experiment size: Quick keeps every experiment under a
// few seconds for tests and smoke runs; Full is the paper-scale run
// (`go run ./cmd/bcbench -run all -scale full`).
type Scale int

const (
	// Quick is the test/smoke scale.
	Quick Scale = iota
	// Full is the paper scale.
	Full
)

// String returns the scale label.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

func (s Scale) pick(quick, full int) int {
	if s == Full {
		return full
	}
	return quick
}

func connected(g *graph.Graph) *graph.Graph {
	if graph.IsConnected(g) {
		return g
	}
	lc, _, err := graph.LargestComponent(g)
	if err != nil {
		panic(err)
	}
	return lc
}

// Datasets returns the standard workload registry. The synthetic
// families stand in for the paper's real-world networks and span the
// structural regimes the estimators' behaviour depends on: scale-free
// (BA), homogeneous random (ER), small-world (WS), high-diameter
// lattice (grid), separator structure (barbell, star-of-cliques),
// community structure (planted partition), plus the real Zachary
// karate network.
func Datasets() []Dataset {
	return []Dataset{
		{
			Name: "karate", Family: "real social",
			Build: func(Scale, uint64) *graph.Graph { return graph.KarateClub() },
		},
		{
			Name: "ba", Family: "scale-free (Barabási–Albert)",
			Build: func(s Scale, seed uint64) *graph.Graph {
				return graph.BarabasiAlbert(s.pick(800, 2500), 3, rng.New(seed))
			},
		},
		{
			Name: "er", Family: "homogeneous random (Erdős–Rényi)",
			Build: func(s Scale, seed uint64) *graph.Graph {
				n := s.pick(800, 2500)
				return connected(graph.ErdosRenyiGNP(n, 8/float64(n-1), rng.New(seed)))
			},
		},
		{
			Name: "ws", Family: "small-world (Watts–Strogatz)",
			Build: func(s Scale, seed uint64) *graph.Graph {
				return connected(graph.WattsStrogatz(s.pick(800, 2000), 10, 0.1, rng.New(seed)))
			},
		},
		{
			Name: "grid", Family: "2-D lattice (road-like)",
			Build: func(s Scale, seed uint64) *graph.Graph {
				side := s.pick(20, 40)
				return graph.Grid(side, side)
			},
		},
		{
			Name: "barbell", Family: "separator (two cliques + path)",
			Build: func(s Scale, seed uint64) *graph.Graph {
				k := s.pick(60, 150)
				return graph.Barbell(k, k, 4)
			},
		},
		{
			Name: "cliquestar", Family: "separator (star of cliques)",
			Build: func(s Scale, seed uint64) *graph.Graph {
				return graph.StarOfCliques(4, s.pick(30, 80))
			},
		},
		{
			Name: "planted", Family: "community (planted partition)",
			Build: func(s Scale, seed uint64) *graph.Graph {
				per := s.pick(80, 160)
				return connected(graph.PlantedPartition(4, per, 24/float64(per), 0.002, rng.New(seed)))
			},
		},
	}
}

// DatasetByName finds a dataset in the registry.
func DatasetByName(name string) (Dataset, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("exp: unknown dataset %q", name)
}

// VertexClass identifies target vertices by exact-BC rank, the way the
// per-vertex experiments pick "important", "middling" and "peripheral"
// targets.
type VertexClass struct {
	Label  string
	Vertex int
	BC     float64
}

// PickTargets returns the top-ranked vertex, the vertex at the pXX
// rank positions requested (e.g. 0.5 → median rank), skipping
// zero-betweenness vertices for the lower picks when possible.
func PickTargets(g *graph.Graph, bc []float64, quantiles ...float64) []VertexClass {
	if bc == nil {
		bc = brandes.BCParallel(g, 0)
	}
	idx := make([]int, len(bc))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if bc[idx[a]] != bc[idx[b]] {
			return bc[idx[a]] > bc[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := []VertexClass{{Label: "top", Vertex: idx[0], BC: bc[idx[0]]}}
	for _, q := range quantiles {
		pos := int(q * float64(len(idx)-1))
		// Walk upward past zero-BC vertices so the sampler has a
		// meaningful target (zero targets short-circuit, see core).
		for pos > 0 && bc[idx[pos]] == 0 {
			pos--
		}
		out = append(out, VertexClass{
			Label:  fmt.Sprintf("p%02d", int(q*100)),
			Vertex: idx[pos],
			BC:     bc[idx[pos]],
		})
	}
	return out
}
