package sampler

import (
	"fmt"
	"math"
	"testing"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/stats"
)

// testTargets returns interesting vertices (top BC, median, low) of g.
func testTargets(g *graph.Graph) (exact []float64, targets []int) {
	exact = brandes.BC(g)
	top, median := 0, 0
	for v := range exact {
		if exact[v] > exact[top] {
			top = v
		}
	}
	med := stats.Median(exact)
	bestGap := math.Inf(1)
	for v := range exact {
		if gap := math.Abs(exact[v] - med); gap < bestGap {
			bestGap = gap
			median = v
		}
	}
	return exact, []int{top, median}
}

func TestUniformSourceConverges(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, rng.New(1))
	exact, targets := testTargets(g)
	for _, tgt := range targets {
		u, err := NewUniformSource(g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		est := u.Estimate(3000, rng.New(2))
		if math.Abs(est-exact[tgt]) > 0.02+0.25*exact[tgt] {
			t.Fatalf("uniform target %d: est %v exact %v", tgt, est, exact[tgt])
		}
	}
}

func TestUniformSourceUnbiased(t *testing.T) {
	// Mean over many small-budget runs approaches exact: unbiasedness.
	g := graph.KarateClub()
	exact := brandes.BC(g)
	tgt := 0
	u, err := NewUniformSource(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	var acc stats.Welford
	for rep := 0; rep < 400; rep++ {
		acc.Add(u.Estimate(5, r))
	}
	if math.Abs(acc.Mean()-exact[tgt]) > 4*acc.StdErr()+1e-9 {
		t.Fatalf("uniform bias: mean %v exact %v (stderr %v)", acc.Mean(), exact[tgt], acc.StdErr())
	}
}

func TestUniformSourceEstimateAll(t *testing.T) {
	g := graph.KarateClub()
	exact := brandes.BC(g)
	u, _ := NewUniformSource(g, 0)
	est := u.EstimateAll(2000, rng.New(5))
	if stats.MeanAbsError(est, exact) > 0.01 {
		t.Fatalf("EstimateAll MAE %v", stats.MeanAbsError(est, exact))
	}
	// Sampling all n sources repeatedly should correlate strongly in rank.
	if stats.Spearman(est, exact) < 0.95 {
		t.Fatalf("EstimateAll rank correlation %v", stats.Spearman(est, exact))
	}
}

func TestDistanceSourceConverges(t *testing.T) {
	g := graph.Grid(12, 12) // high diameter: the regime [13] targets
	exact := brandes.BC(g)
	tgt := 5*12 + 6 // central-ish vertex
	d, err := NewDistanceSource(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	est := d.Estimate(4000, rng.New(7))
	if math.Abs(est-exact[tgt]) > 0.02+0.25*exact[tgt] {
		t.Fatalf("distance: est %v exact %v", est, exact[tgt])
	}
}

func TestDistanceSourceUnbiased(t *testing.T) {
	g := graph.KarateClub()
	exact := brandes.BC(g)
	tgt := 2
	d, err := NewDistanceSource(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	var acc stats.Welford
	for rep := 0; rep < 400; rep++ {
		acc.Add(d.Estimate(5, r))
	}
	if math.Abs(acc.Mean()-exact[tgt]) > 4*acc.StdErr()+1e-9 {
		t.Fatalf("distance bias: mean %v exact %v (stderr %v)", acc.Mean(), exact[tgt], acc.StdErr())
	}
}

func TestDistanceSourceRejectsDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, err := NewDistanceSource(b.MustBuild(), 0); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestOptimalOracleZeroVariance(t *testing.T) {
	// The [13] optimal sampler computes BC exactly with every sample —
	// the paper's §4.1 claim verbatim.
	g := graph.KarateClub()
	exact := brandes.BC(g)
	for _, tgt := range []int{0, 8, 33} {
		o, err := NewOptimalOracle(g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(o.BC()-exact[tgt]) > 1e-12 {
			t.Fatalf("oracle BC %v exact %v", o.BC(), exact[tgt])
		}
		r := rng.New(13)
		for _, k := range []int{1, 2, 10} {
			if got := o.Estimate(k, r); math.Abs(got-exact[tgt]) > 1e-12 {
				t.Fatalf("oracle estimate with %d samples: %v want %v", k, got, exact[tgt])
			}
		}
	}
}

func TestOptimalOracleZeroBCVertex(t *testing.T) {
	// A star leaf has BC 0 and an all-zero dependency column.
	o, err := NewOptimalOracle(graph.Star(6), 3)
	if err != nil {
		t.Fatal(err)
	}
	if o.BC() != 0 || o.Estimate(10, rng.New(1)) != 0 {
		t.Fatalf("zero-BC oracle: %v / %v", o.BC(), o.Estimate(10, rng.New(1)))
	}
	if len(o.Dependencies()) != 6 {
		t.Fatal("dependencies not exposed")
	}
}

func TestRKConverges(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, rng.New(17))
	exact, targets := testTargets(g)
	for _, tgt := range targets {
		k, err := NewRK(g, tgt)
		if err != nil {
			t.Fatal(err)
		}
		est := k.Estimate(6000, rng.New(19))
		if math.Abs(est-exact[tgt]) > 0.02+0.3*exact[tgt] {
			t.Fatalf("RK target %d: est %v exact %v", tgt, est, exact[tgt])
		}
	}
}

func TestRKUnbiased(t *testing.T) {
	g := graph.KarateClub()
	exact := brandes.BC(g)
	tgt := 0
	k, _ := NewRK(g, tgt)
	r := rng.New(23)
	var acc stats.Welford
	for rep := 0; rep < 500; rep++ {
		acc.Add(k.Estimate(20, r))
	}
	if math.Abs(acc.Mean()-exact[tgt]) > 4*acc.StdErr()+1e-9 {
		t.Fatalf("RK bias: mean %v exact %v (stderr %v)", acc.Mean(), exact[tgt], acc.StdErr())
	}
}

func TestRKEstimateAll(t *testing.T) {
	g := graph.KarateClub()
	exact := brandes.BC(g)
	k, _ := NewRK(g, 0)
	est := k.EstimateAll(20000, rng.New(29))
	if stats.MeanAbsError(est, exact) > 0.01 {
		t.Fatalf("RK EstimateAll MAE %v", stats.MeanAbsError(est, exact))
	}
}

func TestKadabraLiteMatchesRK(t *testing.T) {
	// Same estimator through bb-BFS sampling: distributions agree.
	g := graph.BarabasiAlbert(200, 3, rng.New(31))
	exact := brandes.BC(g)
	tgt := 0
	for v := range exact {
		if exact[v] > exact[tgt] {
			tgt = v
		}
	}
	kl, err := NewKadabraLite(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	est := kl.Estimate(6000, rng.New(37))
	if math.Abs(est-exact[tgt]) > 0.02+0.3*exact[tgt] {
		t.Fatalf("bb-BFS est %v exact %v", est, exact[tgt])
	}
	if kl.EdgesTouched() == 0 {
		t.Fatal("work accounting missing")
	}
}

func TestKadabraLiteEstimateAll(t *testing.T) {
	g := graph.KarateClub()
	exact := brandes.BC(g)
	kl, _ := NewKadabraLite(g, 0)
	est := kl.EstimateAll(20000, rng.New(41))
	if stats.MeanAbsError(est, exact) > 0.01 {
		t.Fatalf("bb-BFS EstimateAll MAE %v", stats.MeanAbsError(est, exact))
	}
}

func TestKadabraLiteRejectsWeighted(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 2)
	if _, err := NewKadabraLite(b.MustBuild(), 0); err == nil {
		t.Fatal("weighted graph accepted")
	}
}

func TestConstructorsRejectBadTarget(t *testing.T) {
	g := graph.Path(4)
	if _, err := NewUniformSource(g, -1); err == nil {
		t.Fatal("uniform accepted bad target")
	}
	if _, err := NewDistanceSource(g, 99); err == nil {
		t.Fatal("distance accepted bad target")
	}
	if _, err := NewOptimalOracle(g, 99); err == nil {
		t.Fatal("oracle accepted bad target")
	}
	if _, err := NewRK(g, -3); err == nil {
		t.Fatal("RK accepted bad target")
	}
	if _, err := NewKadabraLite(g, 99); err == nil {
		t.Fatal("kadabra accepted bad target")
	}
}

func TestZeroSampleBudgets(t *testing.T) {
	g := graph.Path(5)
	u, _ := NewUniformSource(g, 2)
	if u.Estimate(0, rng.New(1)) != 0 {
		t.Fatal("zero budget should estimate 0")
	}
	k, _ := NewRK(g, 2)
	if k.Estimate(0, rng.New(1)) != 0 {
		t.Fatal("zero budget should estimate 0")
	}
	all := k.EstimateAll(0, rng.New(1))
	for _, v := range all {
		if v != 0 {
			t.Fatal("zero budget EstimateAll should be zeros")
		}
	}
}

func TestWeightedGraphSourceSamplers(t *testing.T) {
	// Uniform and distance samplers must work on weighted graphs
	// (Dijkstra SPDs under the hood).
	g := graph.WithUniformWeights(graph.Grid(8, 8), 1, 5, rng.New(43))
	exact := brandes.BC(g)
	tgt := 3*8 + 4
	u, err := NewUniformSource(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if est := u.Estimate(3000, rng.New(47)); math.Abs(est-exact[tgt]) > 0.02+0.3*exact[tgt] {
		t.Fatalf("weighted uniform est %v exact %v", est, exact[tgt])
	}
	d, err := NewDistanceSource(g, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if est := d.Estimate(3000, rng.New(53)); math.Abs(est-exact[tgt]) > 0.02+0.3*exact[tgt] {
		t.Fatalf("weighted distance est %v exact %v", est, exact[tgt])
	}
}

func BenchmarkUniformSample(b *testing.B) {
	g := graph.BarabasiAlbert(5000, 3, rng.New(1))
	u, _ := NewUniformSource(g, 0)
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Estimate(1, r)
	}
}

func BenchmarkRKSample(b *testing.B) {
	g := graph.BarabasiAlbert(5000, 3, rng.New(1))
	k, _ := NewRK(g, 0)
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Estimate(1, r)
	}
}

func BenchmarkKadabraSample(b *testing.B) {
	g := graph.BarabasiAlbert(5000, 3, rng.New(1))
	k, _ := NewKadabraLite(g, 0)
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Estimate(1, r)
	}
}

// OptimalOracle is the zero-variance sampler of [13]: sources drawn
// with P[s] ∝ δ_s•(target). Building it requires the exact dependency
// column (O(nm)), whose sum already is the answer — the paper's point
// is precisely that this distribution is unattainable, motivating the
// MH chain that converges to it. No program samples from it; it lives
// beside its tests, where every sample must equal BC(target) exactly.
type OptimalOracle struct {
	target int
	bc     float64
	alias  *rng.Alias
	dep    []float64
	total  float64
	n      int
}

// NewOptimalOracle precomputes the exact dependency column for target.
func NewOptimalOracle(g *graph.Graph, target int) (*OptimalOracle, error) {
	n := g.N()
	if target < 0 || target >= n {
		return nil, fmt.Errorf("sampler: target %d out of range", target)
	}
	dep := brandes.DependencyVector(g, target)
	var total float64
	for _, v := range dep {
		total += v
	}
	o := &OptimalOracle{
		target: target,
		dep:    dep,
		total:  total,
		n:      n,
		bc:     total / (float64(n) * float64(n-1)),
	}
	if total > 0 {
		o.alias = rng.NewAlias(dep)
	}
	return o, nil
}

// BC returns the exact betweenness the oracle was built from.
func (o *OptimalOracle) BC() float64 { return o.bc }

// Dependencies exposes the exact dependency column δ_·•(target); the
// experiments reuse it for μ(r) and bias ground truth.
func (o *OptimalOracle) Dependencies() []float64 { return o.dep }

// Estimate implements PointEstimator. Every sample evaluates the [13]
// estimator δ_s/(n(n-1)P[s]) at P[s] = δ_s/total, which is constant —
// the "error 0" property of optimal sampling.
func (o *OptimalOracle) Estimate(samples int, r *rng.RNG) float64 {
	if samples <= 0 || o.alias == nil {
		return o.bc // BC = 0 graphs: the estimate is exactly 0 too
	}
	var sum float64
	for i := 0; i < samples; i++ {
		s := o.alias.Draw(r)
		sum += o.dep[s] / (float64(o.n) * float64(o.n-1)) * o.total / o.dep[s]
	}
	return sum / float64(samples)
}

// EdgesTouched reports total adjacency entries scanned so far, the work
// measure T7 compares against full-BFS samplers.
func (k *KadabraLite) EdgesTouched() int { return k.bb.EdgesTouched }

// EstimateAll returns a length-n estimate vector from one path-sampling
// budget.
func (k *KadabraLite) EstimateAll(samples int, r *rng.RNG) []float64 {
	n := k.g.N()
	out := make([]float64, n)
	if samples <= 0 {
		return out
	}
	for i := 0; i < samples; i++ {
		s := r.Intn(n)
		t := r.Intn(n)
		if s == t {
			continue
		}
		path := k.bb.Sample(s, t, r)
		if len(path) > 2 {
			for _, v := range path[1 : len(path)-1] {
				out[v]++
			}
		}
	}
	scale := float64(n) / (float64(samples) * float64(n-1))
	for v := range out {
		out[v] *= scale
	}
	return out
}
