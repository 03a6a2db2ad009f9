package mcmc

import (
	"math"
	"testing"
	"testing/quick"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// TestKernelStationarity numerically verifies that the single-space MH
// kernel leaves P_r[v] ∝ δ_v•(r) invariant: with uniform proposals the
// transition matrix is
//
//	P(u→v) = (1/n)·a(u,v) for v≠u,  P(u→u) = 1 − Σ_{v≠u} P(u→v)
//
// with a(u,v) the acceptance probability (including the zero-state
// conventions). πP = π must hold exactly on the support of π.
func TestKernelStationarity(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(6),
		graph.Star(6),
		graph.Cycle(7),
		graph.KaryTree(7, 2),
		graph.Barbell(3, 3, 1),
	}
	for gi, g := range graphs {
		n := g.N()
		for r := 0; r < n; r++ {
			dep := brandes.DependencyVector(g, r)
			var sum float64
			for _, d := range dep {
				sum += d
			}
			if sum == 0 {
				continue // zero-BC target: π undefined, chain is a uniform walk
			}
			// Acceptance probability mirroring acceptMH.
			acc := func(du, dv float64) float64 {
				switch {
				case du == 0:
					return 1
				case dv == 0:
					return 0
				case dv >= du:
					return 1
				default:
					return dv / du
				}
			}
			// π P evaluated column-by-column.
			for v := 0; v < n; v++ {
				var inflow float64
				for u := 0; u < n; u++ {
					var pUV float64
					if u == v {
						stay := 1.0
						for w := 0; w < n; w++ {
							if w == u {
								continue
							}
							stay -= acc(dep[u], dep[w]) / float64(n)
						}
						pUV = stay
					} else {
						pUV = acc(dep[u], dep[v]) / float64(n)
					}
					inflow += dep[u] / sum * pUV
				}
				if math.Abs(inflow-dep[v]/sum) > 1e-12 {
					t.Fatalf("graph %d target %d: stationarity broken at state %d: inflow %v want %v",
						gi, r, v, inflow, dep[v]/sum)
				}
			}
		}
	}
}

// TestKernelStationarityProperty extends the check to random graphs.
func TestKernelStationarityProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%12) + 4
		g := graph.ErdosRenyiGNP(n, 0.4, rng.New(seed))
		lc, _, err := graph.LargestComponent(g)
		if err != nil || lc.N() < 3 {
			return true
		}
		n = lc.N()
		r := int(seed % uint64(n))
		dep := brandes.DependencyVector(lc, r)
		var sum float64
		for _, d := range dep {
			sum += d
		}
		if sum == 0 {
			return true
		}
		acc := func(du, dv float64) float64 {
			switch {
			case du == 0:
				return 1
			case dv == 0:
				return 0
			case dv >= du:
				return 1
			default:
				return dv / du
			}
		}
		for v := 0; v < n; v++ {
			var inflow float64
			for u := 0; u < n; u++ {
				var pUV float64
				if u == v {
					stay := 1.0
					for w := 0; w < n; w++ {
						if w != u {
							stay -= acc(dep[u], dep[w]) / float64(n)
						}
					}
					pUV = stay
				} else {
					pUV = acc(dep[u], dep[v]) / float64(n)
				}
				inflow += dep[u] / sum * pUV
			}
			if math.Abs(inflow-dep[v]/sum) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEmpiricalStationaryDistribution runs a long chain on a small
// graph and compares the empirical state occupancy with π.
func TestEmpiricalStationaryDistribution(t *testing.T) {
	g := graph.KaryTree(7, 2)
	r := 0 // root: positive dependencies at internal vertices
	dep := brandes.DependencyVector(g, r)
	var sum float64
	for _, d := range dep {
		sum += d
	}
	oracle, err := NewOracle(g, r)
	if err != nil {
		t.Fatal(err)
	}
	// Run the chain manually to count state occupancy.
	rnd := rng.New(5)
	cur := rnd.Intn(g.N())
	depCur := oracle.Dep(cur)
	counts := make([]float64, g.N())
	const T = 400000
	for i := 0; i < T; i++ {
		prop := rnd.Intn(g.N())
		depNew := oracle.Dep(prop)
		if acceptMH(depCur, depNew, 1, rnd) {
			cur, depCur = prop, depNew
		}
		counts[cur]++
	}
	for v := 0; v < g.N(); v++ {
		want := dep[v] / sum
		got := counts[v] / T
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("occupancy of %d: %v want %v", v, got, want)
		}
	}
}

func TestExtendedRelativeExactBounds(t *testing.T) {
	g := graph.KarateClub()
	for _, pair := range [][2]int{{0, 33}, {2, 8}, {5, 31}} {
		v, err := ExtendedRelativeExact(g, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if v < 0 || v > 1 {
			t.Fatalf("extended score out of [0,1]: %v", v)
		}
	}
	// Diagonal: every pair dependency equals itself → min ratio 1 for
	// all (v,t) pairs (0/0 → 1 by convention), so the score is 1.
	d, err := ExtendedRelativeExact(g, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("diagonal extended score %v", d)
	}
}

func TestExtendedRelativeExactStar(t *testing.T) {
	// Star: center c vs leaf l. δ_vt(center) = 1 for every leaf pair
	// (v,t); δ_vt(leaf) = 0 for all pairs. The score of leaf-vs-center
	// counts min{1, 0/1} = 0 on the (n-1)(n-2) leaf pairs and
	// min{1, 0/0} = 1 on pairs involving the center (2(n-1) ordered
	// pairs): BC_c(l) = 2(n-1)/(n(n-1)) = 2/n.
	n := 8
	g := graph.Star(n)
	got, err := ExtendedRelativeExact(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 / float64(n)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("leaf-vs-center extended score %v want %v", got, want)
	}
	// Center vs leaf: min{1, 1/0}=1 on leaf pairs and 1 on center pairs
	// → exactly 1.
	got, err = ExtendedRelativeExact(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("center-vs-leaf extended score %v want 1", got)
	}
}

func TestExtendedRelativePathHandComputed(t *testing.T) {
	// P4 (0-1-2-3): by symmetry the extended score of 1 vs 2 equals
	// that of 2 vs 1. Pair dependencies: vertex 1 is interior to
	// (0,2),(0,3),(2,0),(3,0) with δ=1; vertex 2 to (0,3),(1,3),(3,0),(3,1).
	// For (ri=1, rj=2): per (v,t) min-ratio = 1 where δ(2)=0 (by the
	// 0/0→1 and x/0→1 conventions) except where δ(2)=1 and δ(1)=0:
	// pairs (1,3),(3,1) give 0; pairs (0,3),(3,0) give 1/1=1. All other
	// ordered pairs have δ(2)=0 → ratio 1. Total = 12 pairs - 2 zeros
	// = 10 → score 10/12.
	g := graph.Path(4)
	got, err := ExtendedRelativeExact(g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10.0/12.0) > 1e-12 {
		t.Fatalf("P4 extended score %v want %v", got, 10.0/12.0)
	}
	sym, _ := ExtendedRelativeExact(g, 2, 1)
	if math.Abs(sym-got) > 1e-12 {
		t.Fatalf("P4 symmetry broken: %v vs %v", sym, got)
	}
}

func TestExtendedRelativeValidation(t *testing.T) {
	g := graph.Path(4)
	if _, err := ExtendedRelativeExact(g, -1, 2); err == nil {
		t.Fatal("bad ri accepted")
	}
	if _, err := ExtendedRelativeExact(g, 1, 9); err == nil {
		t.Fatal("bad rj accepted")
	}
}
