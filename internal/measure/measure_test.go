package measure

import (
	"context"
	"math"
	"reflect"
	"testing"

	"bcmh/internal/brandes"
	"bcmh/internal/core"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/rng"
)

// --- independent brute-force reference implementations ---

// naiveBFS computes hop distances and shortest-path counts from s with
// a plain queue — deliberately independent of the sssp kernels the
// evaluators use.
func naiveBFS(g *graph.Graph, s int) (dist []int, sigma []float64) {
	n := g.N()
	dist = make([]int, n)
	sigma = make([]float64, n)
	for v := range dist {
		dist[v] = -1
	}
	dist[s] = 0
	sigma[s] = 1
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
			if dist[w] == dist[u]+1 {
				sigma[w] += sigma[u]
			}
		}
	}
	return dist, sigma
}

// bruteColumn computes the coverage or kpath statistic column at r by
// enumerating ordered pairs over per-source naive BFS runs.
func bruteColumn(g *graph.Graph, spec Spec, r int) []float64 {
	n := g.N()
	dist := make([][]int, n)
	sigma := make([][]float64, n)
	for v := 0; v < n; v++ {
		dist[v], sigma[v] = naiveBFS(g, v)
	}
	deps := make([]float64, n)
	for v := 0; v < n; v++ {
		if v == r {
			continue
		}
		for t := 0; t < n; t++ {
			if t == v || t == r || dist[v][t] < 0 || dist[v][r] < 0 || dist[r][t] < 0 {
				continue
			}
			if dist[v][r]+dist[r][t] != dist[v][t] {
				continue
			}
			switch spec.Kind {
			case Coverage:
				deps[v]++
			case KPath:
				if dist[v][t] <= spec.K {
					deps[v] += sigma[v][r] * sigma[r][t] / sigma[v][t]
				}
			}
		}
	}
	return deps
}

// denseLaplacianSolve solves L·x = b on the grounded system (vertex 0
// struck) by Gaussian elimination and recenters to the sum-zero
// representative — independent of internal/linalg.
func denseLaplacianSolve(g *graph.Graph, b []float64) []float64 {
	n := g.N()
	m := n - 1 // grounded system over vertices 1..n-1
	a := make([][]float64, m)
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		a[i] = make([]float64, m)
		v := i + 1
		a[i][i] = float64(len(g.Neighbors(v)))
		for _, w := range g.Neighbors(v) {
			if w != 0 {
				a[i][w-1] -= 1
			}
		}
		rhs[i] = b[v]
	}
	for col := 0; col < m; col++ {
		piv := col
		for rr := col + 1; rr < m; rr++ {
			if math.Abs(a[rr][col]) > math.Abs(a[piv][col]) {
				piv = rr
			}
		}
		a[col], a[piv] = a[piv], a[col]
		rhs[col], rhs[piv] = rhs[piv], rhs[col]
		for rr := col + 1; rr < m; rr++ {
			f := a[rr][col] / a[col][col]
			if f == 0 {
				continue
			}
			for cc := col; cc < m; cc++ {
				a[rr][cc] -= f * a[col][cc]
			}
			rhs[rr] -= f * rhs[col]
		}
	}
	x := make([]float64, n)
	for rr := m - 1; rr >= 0; rr-- {
		s := rhs[rr]
		for cc := rr + 1; cc < m; cc++ {
			s -= a[rr][cc] * x[cc+1]
		}
		x[rr+1] = s / a[rr][rr]
	}
	var mean float64
	for _, xi := range x {
		mean += xi
	}
	mean /= float64(n)
	for i := range x {
		x[i] -= mean
	}
	return x
}

// bruteRWBCColumn computes d_·(r) straight from the definition: one
// dense Laplacian solve per ordered pair, current through r read off
// r's incident potential drops, endpoint convention T = 1.
func bruteRWBCColumn(g *graph.Graph, r int) []float64 {
	n := g.N()
	deps := make([]float64, n)
	b := make([]float64, n)
	for v := 0; v < n; v++ {
		for t := 0; t < n; t++ {
			if t == v {
				continue
			}
			if v == r || t == r {
				deps[v]++
				continue
			}
			b[v], b[t] = 1, -1
			p := denseLaplacianSolve(g, b)
			b[v], b[t] = 0, 0
			var cur float64
			for _, j := range g.Neighbors(r) {
				cur += math.Abs(p[r] - p[j])
			}
			deps[v] += cur / 2
		}
	}
	return deps
}

func connectedER(t *testing.T, n int, p float64, seed uint64) *graph.Graph {
	t.Helper()
	g := graph.ErdosRenyiGNP(n, p, rng.New(seed))
	if !graph.IsConnected(g) {
		lc, _, err := graph.LargestComponent(g)
		if err != nil {
			t.Fatalf("LargestComponent: %v", err)
		}
		g = lc
	}
	return g
}

// --- Spec surface ---

func TestParseSpec(t *testing.T) {
	cases := []struct {
		name    string
		k       int
		want    Spec
		wantErr bool
	}{
		{"", 0, Spec{Kind: BC}, false},
		{"bc", 0, Spec{Kind: BC}, false},
		{"coverage", 0, Spec{Kind: Coverage}, false},
		{"kpath", 0, Spec{Kind: KPath, K: DefaultKPathK}, false},
		{"kpath", 3, Spec{Kind: KPath, K: 3}, false},
		{"rwbc", 0, Spec{Kind: RWBC}, false},
		{"betweenness", 0, Spec{}, true}, // unknown name
		{"bc", 4, Spec{}, true},          // misplaced k
		{"rwbc", 2, Spec{}, true},        // misplaced k
		{"kpath", -1, Spec{}, true},      // invalid k
	}
	for _, c := range cases {
		got, err := Parse(c.name, c.k)
		if c.wantErr {
			if err == nil {
				t.Errorf("Parse(%q,%d): want error, got %+v", c.name, c.k, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q,%d): %v", c.name, c.k, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q,%d) = %+v, want %+v", c.name, c.k, got, c.want)
		}
	}
	if s := (Spec{Kind: KPath, K: 8}).String(); s != "kpath(k=8)" {
		t.Errorf("String() = %q", s)
	}
	if !(Spec{}).IsBC() {
		t.Error("zero Spec must be bc")
	}
}

func TestSupports(t *testing.T) {
	wb := graph.NewBuilder(3)
	wb.AddWeightedEdge(0, 1, 2.5)
	wb.AddWeightedEdge(1, 2, 1.5)
	weighted, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := graph.NewDirectedBuilder(3)
	db.AddEdge(0, 1)
	db.AddEdge(1, 2)
	directed, err := db.Build()
	if err != nil {
		t.Fatal(err)
	}
	karate := graph.KarateClub()
	for _, spec := range []Spec{{Kind: Coverage}, {Kind: KPath, K: 4}, {Kind: RWBC}} {
		if err := spec.Supports(karate); err != nil {
			t.Errorf("%s on karate: %v", spec, err)
		}
		if err := spec.Supports(weighted); err == nil {
			t.Errorf("%s must reject weighted graphs", spec)
		}
		if err := spec.Supports(directed); err == nil {
			t.Errorf("%s must reject directed graphs", spec)
		}
	}
	if err := (Spec{}).Supports(weighted); err != nil {
		t.Errorf("bc must accept weighted graphs: %v", err)
	}
}

// --- exact cross-checks ---

func TestCoverageExactBruteForce(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"karate": graph.KarateClub(),
		"er30":   connectedER(t, 30, 0.15, 99),
		"ba40":   graph.BarabasiAlbert(40, 2, rng.New(7)),
	}
	ctx := context.Background()
	for name, g := range graphs {
		for _, r := range []int{0, g.N() / 2, g.N() - 1} {
			got, err := ExactColumn(ctx, g, Spec{Kind: Coverage}, r, nil)
			if err != nil {
				t.Fatalf("%s r=%d: %v", name, r, err)
			}
			want := bruteColumn(g, Spec{Kind: Coverage}, r)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s r=%d: coverage[%d] = %g, brute force %g", name, r, v, got[v], want[v])
				}
			}
		}
	}
}

func TestKPathExactBruteForce(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"karate": graph.KarateClub(),
		"er30":   connectedER(t, 30, 0.15, 99),
	}
	ctx := context.Background()
	for name, g := range graphs {
		for _, k := range []int{1, 2, 3, DefaultKPathK} {
			spec := Spec{Kind: KPath, K: k}
			for _, r := range []int{0, g.N() - 1} {
				got, err := ExactColumn(ctx, g, spec, r, nil)
				if err != nil {
					t.Fatalf("%s k=%d r=%d: %v", name, k, r, err)
				}
				want := bruteColumn(g, spec, r)
				for v := range want {
					if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
						t.Fatalf("%s k=%d r=%d: kpath[%d] = %g, brute force %g", name, k, r, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// Once K reaches the diameter, kpath is betweenness exactly — pin the
// degeneration against the Brandes exact column.
func TestKPathDegeneratesToBC(t *testing.T) {
	g := graph.KarateClub() // diameter 5
	ctx := context.Background()
	for _, r := range []int{0, 2, 33} {
		got, err := ExactColumn(ctx, g, Spec{Kind: KPath, K: 64}, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := brandes.DependencyVector(g, r)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
				t.Fatalf("r=%d v=%d: kpath(64) %g vs bc %g", r, v, got[v], want[v])
			}
		}
	}
}

func TestRWBCExactDense(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"karate": graph.KarateClub(),
		"er20":   connectedER(t, 20, 0.2, 3),
	}
	ctx := context.Background()
	for name, g := range graphs {
		for _, r := range []int{0, g.N() / 2} {
			got, err := ExactColumn(ctx, g, Spec{Kind: RWBC}, r, nil)
			if err != nil {
				t.Fatalf("%s r=%d: %v", name, r, err)
			}
			want := bruteRWBCColumn(g, r)
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
					t.Fatalf("%s r=%d: rwbc[%d] = %.12g, dense %.12g", name, r, v, got[v], want[v])
				}
			}
		}
	}
}

// The shared normalisation contract: 0 ≤ d ≤ n−1 (f ∈ [0,1]) and the
// endpoint conventions each measure documents.
func TestColumnRangeContract(t *testing.T) {
	g := graph.KarateClub()
	n := g.N()
	ctx := context.Background()
	for _, spec := range []Spec{{Kind: Coverage}, {Kind: KPath, K: 3}, {Kind: RWBC}} {
		deps, err := ExactColumn(ctx, g, spec, 33, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v, d := range deps {
			if d < 0 || d > float64(n-1)+1e-9 {
				t.Fatalf("%s: d[%d] = %g outside [0, n-1]", spec, v, d)
			}
		}
		if spec.Kind == RWBC {
			if deps[33] != float64(n-1) {
				t.Fatalf("rwbc: d_r(r) = %g, want n-1", deps[33])
			}
		} else if deps[33] != 0 {
			t.Fatalf("%s: d_r(r) = %g, want 0", spec, deps[33])
		}
	}
}

func TestStatsMatchesColumn(t *testing.T) {
	g := graph.KarateClub()
	ctx := context.Background()
	spec := Spec{Kind: Coverage}
	ms, err := Stats(ctx, g, spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	deps, err := ExactColumn(ctx, g, spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mcmc.MuFromDeps(deps)
	if ms != want {
		t.Fatalf("Stats = %+v, MuFromDeps(column) = %+v", ms, want)
	}
	// BC spec routes to the pooled μ derivation.
	bcStats, err := Stats(ctx, g, Spec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bcWant, err := mcmc.MuExact(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bcStats != bcWant {
		t.Fatalf("bc Stats = %+v, MuExact = %+v", bcStats, bcWant)
	}
}

// --- estimation ---

func TestEstimateBCDelegatesToCore(t *testing.T) {
	g := graph.KarateClub()
	opts := core.Options{Steps: 512, Seed: 7}
	want, err := core.EstimateBCPreparedContext(context.Background(), g, 0, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimatePrepared(context.Background(), g, Spec{}, 0, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value ||
		got.Diagnostics.ChainAverage != want.Diagnostics.ChainAverage ||
		got.Diagnostics.PaperEq7 != want.Diagnostics.PaperEq7 ||
		got.Diagnostics.AcceptanceRate != want.Diagnostics.AcceptanceRate ||
		got.Diagnostics.Evals != want.Diagnostics.Evals {
		t.Fatalf("bc spec diverged from core fast path: %+v vs %+v", got, want)
	}
	// The standalone front door derives μ itself, like core.EstimateBC.
	planned := core.Options{Epsilon: 0.1, Delta: 0.2, MaxSteps: 4096, Seed: 7}
	want, err = core.EstimateBC(g, 0, planned)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Estimate(context.Background(), g, Spec{}, 0, planned, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("measure.Estimate(bc) diverged from core.EstimateBC: %+v vs %+v", got, want)
	}
}

func TestEstimateConvergesToExactValue(t *testing.T) {
	g := graph.KarateClub()
	ctx := context.Background()
	pool := mcmc.NewBufferPool(g)
	for _, spec := range []Spec{{Kind: Coverage}, {Kind: KPath, K: 4}, {Kind: RWBC}} {
		ms, err := Stats(ctx, g, spec, 33, pool)
		if err != nil {
			t.Fatal(err)
		}
		// The chain average converges to ChainLimit, not to the value;
		// compare against it, and sanity-check it sits near the value.
		est, err := Estimate(ctx, g, spec, 33, core.Options{Steps: 60000, Seed: 11}, pool)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if ms.ChainLimit <= 0 {
			t.Fatalf("%s: degenerate ChainLimit %g", spec, ms.ChainLimit)
		}
		rel := math.Abs(est.Value-ms.ChainLimit) / ms.ChainLimit
		if rel > 0.10 {
			t.Errorf("%s: estimate %g vs chain limit %g (rel err %.3f)", spec, est.Value, ms.ChainLimit, rel)
		}
	}
}

func TestEstimatePlannedFromMeasureMu(t *testing.T) {
	g := graph.KarateClub()
	ctx := context.Background()
	spec := Spec{Kind: Coverage}
	est, err := Estimate(ctx, g, spec, 33, core.Options{Epsilon: 0.1, Delta: 0.2, MaxSteps: 4096, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.MuUsed <= 0 {
		t.Fatalf("planned run must report the μ used, got %g", est.MuUsed)
	}
	ms, err := Stats(ctx, g, spec, 33, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.MuUsed != ms.Mu {
		t.Fatalf("MuUsed = %g, coverage μ = %g", est.MuUsed, ms.Mu)
	}
	if est.PlannedSteps != core.PlanFromMu(core.Options{Epsilon: 0.1, Delta: 0.2, MaxSteps: 4096}, ms.Mu) {
		t.Fatalf("PlannedSteps = %d disagrees with PlanFromMu", est.PlannedSteps)
	}
}

func TestEstimateParallelChainsDeterministic(t *testing.T) {
	g := graph.KarateClub()
	ctx := context.Background()
	spec := Spec{Kind: RWBC}
	opts := core.Options{Steps: 400, Chains: 3, Seed: 17}
	a, err := EstimatePrepared(ctx, g, spec, 2, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimatePrepared(ctx, g, spec, 2, opts, 0, mcmc.NewBufferPool(g))
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value || len(a.PerChain) != 3 {
		t.Fatalf("parallel measure estimation not deterministic: %g vs %g (%d chains)", a.Value, b.Value, len(a.PerChain))
	}
}

func TestEstimateAdaptiveStopsWithinBudget(t *testing.T) {
	g := graph.KarateClub()
	ctx := context.Background()
	spec := Spec{Kind: Coverage}
	est, err := Estimate(ctx, g, spec, 33, core.Options{Adaptive: true, Epsilon: 0.05, Delta: 0.1, MaxSteps: 1 << 20, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Diagnostics.Converged {
		t.Fatalf("adaptive run did not converge within budget (half-width %g)", est.Diagnostics.EBHalfWidth)
	}
	if est.Diagnostics.StepsRun >= 1<<20 {
		t.Fatalf("adaptive run used the whole budget (%d steps)", est.Diagnostics.StepsRun)
	}
	if est.MuUsed != 0 {
		t.Fatalf("adaptive run must not consume μ, got %g", est.MuUsed)
	}
}

func TestExactColumnRejectsBC(t *testing.T) {
	if _, err := ExactColumn(context.Background(), graph.KarateClub(), Spec{}, 0, nil); err == nil {
		t.Fatal("ExactColumn must reject the bc spec")
	}
	if _, err := NewTarget(context.Background(), graph.KarateClub(), Spec{}, 0, nil); err == nil {
		t.Fatal("NewTarget must reject the bc spec")
	}
}
