// Benchmarks for every reproduced table and figure: Benchmark<ID>
// exercises the computational kernel of experiment <ID>. Regenerate the
// actual tables with `go run ./cmd/bcbench -run all -scale full`.
package bcmh_test

import (
	"context"
	"io"
	"sort"
	"sync"
	"testing"

	"bcmh/internal/brandes"
	"bcmh/internal/core"
	"bcmh/internal/durable"
	"bcmh/internal/engine"
	"bcmh/internal/exp"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/measure"
	"bcmh/internal/rank"
	"bcmh/internal/rng"
	"bcmh/internal/sampler"
	"bcmh/internal/sssp"
)

// fixtures are shared across benchmarks and built once.
var (
	fixOnce sync.Once
	fixBA   *graph.Graph // scale-free workload
	fixGrid *graph.Graph // high-diameter workload
	fixWBA  *graph.Graph // weighted variant
	fixTop  int          // top-degree vertex of fixBA
)

func fixtures() {
	fixOnce.Do(func() {
		fixBA = graph.BarabasiAlbert(2000, 3, rng.New(1))
		fixGrid = graph.Grid(40, 40)
		fixWBA = graph.WithUniformWeights(fixBA, 1, 10, rng.New(2))
		for v := 1; v < fixBA.N(); v++ {
			if fixBA.Degree(v) > fixBA.Degree(fixTop) {
				fixTop = v
			}
		}
	})
}

// BenchmarkT1Datasets measures building the full dataset registry
// (table T1's workload generation).
func BenchmarkT1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range exp.Datasets() {
			g := d.Build(exp.Quick, 1)
			if g.N() == 0 {
				b.Fatal("empty dataset")
			}
		}
	}
}

// BenchmarkT2SingleVertex measures one 1024-step single-space MH chain
// (table T2's kernel: estimate one vertex at a fixed budget).
func BenchmarkT2SingleVertex(b *testing.B) {
	fixtures()
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcmc.Run(context.Background(), fixBA, mcmc.BC(fixTop), mcmc.DefaultConfig(1024), r.Uint64(), 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF1ErrorVsT measures one budget point of the F1 sweep: every
// estimator once at T=256.
func BenchmarkF1ErrorVsT(b *testing.B) {
	fixtures()
	r := rng.New(5)
	u, _ := sampler.NewUniformSource(fixBA, fixTop)
	d, _ := sampler.NewDistanceSource(fixBA, fixTop)
	k, _ := sampler.NewRK(fixBA, fixTop)
	kl, _ := sampler.NewKadabraLite(fixBA, fixTop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcmc.Run(context.Background(), fixBA, mcmc.BC(fixTop), mcmc.DefaultConfig(256), r.Uint64(), 1, nil); err != nil {
			b.Fatal(err)
		}
		u.Estimate(256, r)
		d.Estimate(256, r)
		k.Estimate(256, r)
		kl.Estimate(256, r)
	}
}

// BenchmarkT3Mu measures the exact μ(r) computation (table T3's kernel,
// one O(nm) dependency column).
func BenchmarkT3Mu(b *testing.B) {
	fixtures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcmc.MuExact(fixBA, fixTop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2Coverage measures one coverage repetition (an 800-step
// chain on the star graph).
func BenchmarkF2Coverage(b *testing.B) {
	g := graph.Star(200)
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcmc.Run(context.Background(), g, mcmc.BC(0), mcmc.DefaultConfig(800), r.Uint64(), 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT4Separator measures one μ evaluation on the Theorem-2
// separator family.
func BenchmarkT4Separator(b *testing.B) {
	g := graph.StarOfCliques(4, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcmc.MuExact(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT5JointRatios measures a 4096-step joint-space chain over
// |R| = 6 targets (table T5's kernel).
func BenchmarkT5JointRatios(b *testing.B) {
	fixtures()
	R := []int{fixTop}
	for v := 1; len(R) < 6; v++ {
		if v != fixTop {
			R = append(R, v)
		}
	}
	r := rng.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcmc.EstimateRelative(fixBA, R, mcmc.DefaultJointConfig(4096), r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF3RelativeScore measures the exact relative ground truth
// (|R| dependency columns), F3's expensive reference computation.
func BenchmarkF3RelativeScore(b *testing.B) {
	fixtures()
	R := []int{fixTop, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcmc.ExactRelative(fixBA, R); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT6Ranking measures ranking a 12-vertex candidate set with
// the uniform all-vertices estimator at budget 1024 (T6's cheapest
// competitive method).
func BenchmarkT6Ranking(b *testing.B) {
	fixtures()
	u, _ := sampler.NewUniformSource(fixBA, 0)
	r := rng.New(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.EstimateAll(1024, r)
	}
}

// BenchmarkT7Runtime measures the exact-Brandes side of the crossover
// computation.
func BenchmarkT7Runtime(b *testing.B) {
	fixtures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		brandes.BCParallel(fixBA, 0)
	}
}

// BenchmarkT8Ablations measures the degree-proposal chain variant
// (the ablation with the most machinery on top of the default).
func BenchmarkT8Ablations(b *testing.B) {
	fixtures()
	cfg := mcmc.DefaultConfig(1024)
	cfg.DegreeProposal = true
	r := rng.New(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcmc.Run(context.Background(), fixBA, mcmc.BC(fixTop), cfg, r.Uint64(), 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT9Weighted measures a 1024-step chain on the weighted
// workload (Dijkstra SPDs in the oracle).
func BenchmarkT9Weighted(b *testing.B) {
	fixtures()
	r := rng.New(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcmc.Run(context.Background(), fixWBA, mcmc.BC(fixTop), mcmc.DefaultConfig(1024), r.Uint64(), 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT10Bias measures the bias-decomposition kernel: one long
// chain (8192 steps) plus the exact chain-limit reference.
func BenchmarkT10Bias(b *testing.B) {
	fixtures()
	r := rng.New(19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcmc.Run(context.Background(), fixGrid, mcmc.BC(820), mcmc.DefaultConfig(8192), r.Uint64(), 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentT1EndToEnd runs the complete (cheap) T1 runner —
// a guard that the harness itself stays fast.
func BenchmarkExperimentT1EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.RunT1(io.Discard, exp.Quick, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT11Stress measures one stress-chain estimation (table T11's
// kernel).
func BenchmarkT11Stress(b *testing.B) {
	fixtures()
	r := rng.New(23)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcmc.EstimateStress(fixBA, fixTop, 1024, r.Uint64()); err != nil {
			b.Fatal(err)
		}
	}
}

// batchTargets returns the 32-target batch workload the engine
// benchmarks share: 8 distinct vertices of fixBA (the top-degree hub
// plus 7 others), each requested 4 times — the repeated/overlapping
// traffic shape a multi-user deployment sees.
func batchTargets() []int {
	fixtures()
	distinct := []int{fixTop}
	for v := 0; len(distinct) < 8; v++ {
		if v != fixTop {
			distinct = append(distinct, v)
		}
	}
	targets := make([]int, 0, 32)
	for i := 0; i < 4; i++ {
		targets = append(targets, distinct...)
	}
	return targets
}

// batchBenchOpts is the per-target estimation request used by the
// batch benchmarks: planned steps (so the O(nm) μ derivation is part
// of the work) clamped low enough that chain time doesn't drown out
// the planning cost being amortized.
func batchBenchOpts() core.Options {
	return core.Options{Epsilon: 0.05, Delta: 0.1, MaxSteps: 2048}
}

// BenchmarkEngineBatch32 measures Engine.EstimateBatch over the
// 32-target overlapping workload with a cold engine per iteration:
// μ is derived once per distinct vertex (8 times) and duplicate
// targets are dispatched once, versus 32 full derivations in the
// sequential baseline below.
func BenchmarkEngineBatch32(b *testing.B) {
	targets := batchTargets()
	opts := engine.BatchOptions{Estimation: batchBenchOpts(), Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(fixBA)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.EstimateBatchContext(context.Background(), targets, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBatch32Weighted is BenchmarkEngineBatch32 on the
// weighted twin of the workload: the same 32 overlapping targets, with
// μ derivation and every chain step going through the weighted
// (Dijkstra identity) oracle route instead of the BFS one.
func BenchmarkEngineBatch32Weighted(b *testing.B) {
	targets := batchTargets()
	opts := engine.BatchOptions{Estimation: batchBenchOpts(), Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(fixWBA)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.EstimateBatchContext(context.Background(), targets, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBatch32Warm is the steady-state variant: one engine
// across iterations, so after the first batch every request is a
// result-cache hit — the serving regime the ROADMAP's multi-user
// traffic goal targets.
func BenchmarkEngineBatch32Warm(b *testing.B) {
	targets := batchTargets()
	eng, err := engine.New(fixBA)
	if err != nil {
		b.Fatal(err)
	}
	opts := engine.BatchOptions{Estimation: batchBenchOpts(), Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EstimateBatchContext(context.Background(), targets, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialBatch32 is the baseline the engine must beat: the
// same 32 targets and seeds through core.EstimateBC one at a time,
// which re-validates the graph and re-derives μ from scratch (O(nm))
// on every call and shares no buffers.
func BenchmarkSequentialBatch32(b *testing.B) {
	targets := batchTargets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range targets {
			opts := batchBenchOpts()
			opts.Seed = engine.SeedFor(1, r)
			if _, err := core.EstimateBC(fixBA, r, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// rankFixtures builds the whole-graph ranking workload: a 400-vertex
// scale-free graph, plus a shared pool for the measure benchmarks'
// chains.
var (
	rankOnce sync.Once
	rankBA   *graph.Graph
	rankPool *mcmc.BufferPool
)

func rankFixtures() {
	rankOnce.Do(func() {
		rankBA = graph.BarabasiAlbert(400, 3, rng.New(31))
		rankPool = mcmc.NewBufferPool(rankBA)
	})
}

// BenchmarkRankProgressiveTop5 measures one whole-graph progressive
// top-5 betweenness ranking (internal/rank defaults): batches of 128,
// 256, … shared Brandes passes until the top-5 is certified or all 400
// sources are seen.
func BenchmarkRankProgressiveTop5(b *testing.B) {
	rankFixtures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rank.Run(context.Background(), rankBA, rankPool, rank.Options{K: 5, Seed: 1}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankRoadTop10 measures one top-10 ranking job on a road-style
// graph, the in-process analog of the end-to-end rank-road workload: a
// 20×20 grid with integer weights 1–10 and a 65,536 total budget, of
// which the job spends at most the 400 source passes that make it
// exact.
func BenchmarkRankRoadTop10(b *testing.B) {
	g := graph.WithIntegerWeights(graph.Grid(20, 20), 1, 10, rng.New(5))
	pool := mcmc.NewBufferPool(g)
	opts := rank.Options{K: 10, Seed: 1, TotalBudget: 65536}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i) | 1
		if _, err := rank.Run(context.Background(), g, pool, opts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankUniformTop5 is the one-batch baseline of
// BenchmarkRankProgressiveTop5: a single batch of all 400 sources, no
// pruning — exact Brandes through the ranker.
func BenchmarkRankUniformTop5(b *testing.B) {
	rankFixtures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rank.Uniform(context.Background(), rankBA, rankPool, 5, 2048, rank.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// editBatch builds the 64-edit mutation workload on fixBA: 32 edge
// removals (every 40th edge) and 32 chord insertions, deterministic.
func editBatch() []graph.Edit {
	fixtures()
	var edits []graph.Edit
	i := 0
	fixBA.ForEachEdge(func(u, v int, _ float64) {
		if i%40 == 0 && len(edits) < 32 {
			edits = append(edits, graph.Edit{Op: graph.EditRemove, U: u, V: v})
		}
		i++
	})
	r := rng.New(41)
	for len(edits) < 64 {
		u, v := r.Intn(fixBA.N()), r.Intn(fixBA.N())
		if u == v || fixBA.HasEdge(u, v) {
			continue
		}
		dup := false
		for _, e := range edits {
			if (e.U == u && e.V == v) || (e.U == v && e.V == u) {
				dup = true
				break
			}
		}
		if !dup {
			edits = append(edits, graph.Edit{Op: graph.EditAdd, U: u, V: v})
		}
	}
	return edits
}

// BenchmarkApplyEdits measures one 64-edit batch (32 removals, 32
// insertions) against the 2000-vertex scale-free workload, applied as
// an overlay and compacted into a clean CSR — the cost WAL replay pays
// per record.
func BenchmarkApplyEdits(b *testing.B) {
	edits := editBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.ApplyEdits(fixBA, edits); err != nil {
			b.Fatal(err)
		}
	}
}

// ringChain builds a chain of `rings` cycles of `size` vertices, each
// sharing one articulation vertex with the next — a block-rich
// topology where μ-cache retention across swaps actually retains.
func ringChain(rings, size int) *graph.Graph {
	n := rings*(size-1) + 1
	b := graph.NewBuilder(n)
	for r := 0; r < rings; r++ {
		base := r * (size - 1)
		for i := 0; i < size-1; i++ {
			b.AddEdge(base+i, base+i+1)
		}
		b.AddEdge(base+size-1, base) // close the cycle at the shared vertex
	}
	return b.MustBuild()
}

// BenchmarkSwapGraphWarm measures the full warm-engine mutation path:
// ApplyEditsOverlay (one chord toggled in the first ring) plus
// engine.SwapGraph with a μ-cache of 32 targets spread over a
// 50-ring chain — so every swap runs the block-forest tracker's
// retention analysis and carries ~31 of 32 entries across. This is
// the serving-path cost of one PATCH /graphs/{id}/edges (less the
// connectivity check and the WAL append).
func BenchmarkSwapGraphWarm(b *testing.B) {
	g := ringChain(50, 40)
	eng, err := engine.New(g)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := eng.MuStatsContext(context.Background(), i*(g.N()/32)); err != nil {
			b.Fatal(err)
		}
	}
	cur := eng.Graph()
	add := true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := graph.EditRemove
		if add {
			op = graph.EditAdd
		}
		next, rep, err := graph.ApplyEditsOverlay(cur, []graph.Edit{{Op: op, U: 1, V: 20}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.SwapGraph(next, rep.Pairs); err != nil {
			b.Fatal(err)
		}
		cur = next
		add = !add
	}
}

// streamEditsBench is the body of BenchmarkStreamEdits: one
// single-edit batch per iteration (a chord toggled on and off) applied
// to a warm engine through ApplyEditsOverlay + SwapGraph while a
// background goroutine keeps EstimateBatch traffic flowing — the
// serving regime a live mutation feed runs in.
func streamEditsBench(b *testing.B) {
	fixtures()
	eng, err := engine.New(fixBA)
	if err != nil {
		b.Fatal(err)
	}
	// A deterministic non-edge to toggle.
	r := rng.New(43)
	var cu, cv int
	for {
		cu, cv = r.Intn(fixBA.N()), r.Intn(fixBA.N())
		if cu != cv && !fixBA.HasEdge(cu, cv) {
			break
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		opts := engine.BatchOptions{Estimation: core.Options{MaxSteps: 256}, Seed: 7}
		targets := []int{fixTop, 1, 2, 3}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.EstimateBatchContext(context.Background(), targets, opts); err != nil {
				return
			}
		}
	}()
	cur := eng.Graph()
	add := true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := graph.EditRemove
		if add {
			op = graph.EditAdd
		}
		next, rep, err := graph.ApplyEditsOverlay(cur, []graph.Edit{{Op: op, U: cu, V: cv}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.SwapGraph(next, rep.Pairs); err != nil {
			b.Fatal(err)
		}
		cur = next
		add = !add
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkStreamEdits measures sustained single-edit mutation
// throughput on the 2000-vertex scale-free workload under concurrent
// estimation traffic. The sub-benchmark keeps its "stream" name so
// ledger entries stay comparable.
func BenchmarkStreamEdits(b *testing.B) {
	b.Run("stream", streamEditsBench)
}

// BenchmarkOverlayBFS measures the traversal-side cost of serving from
// a delta overlay: one full BFS on the 2000-vertex workload, clean CSR
// versus the same graph carrying a 64-edit overlay (the acceptance
// bound is ≤10% overhead). The kernel is the reseatable arena BFS every
// estimator chain runs on.
func BenchmarkOverlayBFS(b *testing.B) {
	fixtures()
	over, _, err := graph.ApplyEditsOverlay(fixBA, editBatch())
	if err != nil {
		b.Fatal(err)
	}
	clean := over.Compact()
	run := func(b *testing.B, g *graph.Graph) {
		k := sssp.NewBFS(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Run(i % g.N())
		}
	}
	b.Run("clean", func(b *testing.B) { run(b, clean) })
	b.Run("overlay", func(b *testing.B) { run(b, over) })
}

// BenchmarkWALAppend measures the per-mutation durability overhead: one
// CRC32C-framed WAL record (a two-edit batch) encoded and appended,
// fsync deferred to the interval ticker exactly as in the server's
// default `-fsync interval` deployment. This is the extra cost PATCH
// /graphs/{id}/edges pays on a durable session over an in-memory one.
func BenchmarkWALAppend(b *testing.B) {
	mgr, err := durable.NewManager(durable.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	wal, err := mgr.Create("bench", graph.KarateClub(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer wal.Close()
	edits := []graph.Edit{
		{Op: graph.EditAdd, U: 9, V: 25, W: 1},
		{Op: graph.EditRemove, U: 9, V: 25},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pre := uint64(i)
		if err := wal.Append(pre, pre+1, edits); err != nil {
			b.Fatal(err)
		}
	}
}

// measureFixtures returns the top-degree vertex of the 400-vertex
// ranking workload — the shared target of the measure benchmarks.
func measureHub() int {
	rankFixtures()
	hub := 0
	for v := 1; v < rankBA.N(); v++ {
		if rankBA.Degree(v) > rankBA.Degree(hub) {
			hub = v
		}
	}
	return hub
}

// BenchmarkEstimateCoverage measures a 1024-step coverage-centrality
// chain on the 400-vertex scale-free workload: the BFS-kernel measure
// path (target snapshot + per-state indicator scan) the /estimate
// route runs for measure=coverage.
func BenchmarkEstimateCoverage(b *testing.B) {
	hub := measureHub()
	spec := measure.Spec{Kind: measure.Coverage}
	opts := core.Options{Steps: 1024, Seed: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measure.Estimate(context.Background(), rankBA, spec, hub, opts, rankPool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRWBCSolve measures building one random-walk-betweenness
// target: deg(hub) Jacobi-preconditioned CG Laplacian solves plus the
// sorted absolute-deviation tables — the setup cost every rwbc
// estimate pays once per target.
func BenchmarkRWBCSolve(b *testing.B) {
	hub := measureHub()
	spec := measure.Spec{Kind: measure.RWBC}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measure.NewTarget(context.Background(), rankBA, spec, hub, rankPool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateAdaptive measures one adaptive (empirical-Bernstein)
// estimate at (0.05, 0.1) on the BA-400 hub — the run that stops at
// ~1k steps where the fixed Eq. 14 plan budgets ~17k (see
// TestAdaptiveMatchedAccuracyBA400 and the README "Adaptive stopping"
// numbers).
func BenchmarkEstimateAdaptive(b *testing.B) {
	hub := measureHub()
	opts := core.Options{Adaptive: true, Epsilon: 0.05, Delta: 0.1, Seed: 7, Estimator: mcmc.EstimatorProposalSide}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateBC(rankBA, hub, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT12Adaptive measures one adaptive certification run at a
// loose epsilon (table T12's kernel).
func BenchmarkT12Adaptive(b *testing.B) {
	fixtures()
	a, err := sampler.NewAdaptive(fixBA, fixTop)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(29)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Run(0.05, 0.1, 0, 1<<16, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrandesPassRoad / BenchmarkBrandesPassBA2000 time one
// Brandes pass (a traversal plus the dependency accumulation that gives
// δ_s•(v) for every v) per op, the unit of work of a bc rank job and of
// exact betweenness: the reference sssp.Computer + brandes.Accumulate
// beside the fast kernel's pull-form pass (brandes.NewPass), on
// rank-road's weighted 20×20 grid (Dial route) and on the scale-free
// 2000-vertex fixture (hybrid BFS).
func BenchmarkBrandesPassRoad(b *testing.B) {
	benchBrandesPass(b, graph.WithIntegerWeights(graph.Grid(20, 20), 1, 10, rng.New(5)))
}

func BenchmarkBrandesPassBA2000(b *testing.B) {
	fixtures()
	benchBrandesPass(b, fixBA)
}

func benchBrandesPass(b *testing.B, g *graph.Graph) {
	n := g.N()
	b.Run("reference", func(b *testing.B) {
		c := sssp.NewComputer(g)
		delta := make([]float64, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			brandes.Accumulate(g, c.Run(i%n), delta)
		}
	})
	b.Run("fast", func(b *testing.B) {
		p := brandes.NewPass(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Run(i % n)
			p.Accumulate()
		}
	})
}

// BenchmarkBFSHybrid / BenchmarkBFSClassic pin the two traversal
// kernels against each other on both workload shapes: the scale-free
// graphs where the direction-optimizing kernel's bottom-up levels and
// degree-ordered layout win (ba10000 is the estimate-ba workload's
// shape), and the high-diameter grid whose narrow frontiers must never
// trigger them (the pair's grid numbers agreeing is the "no
// high-diameter regression" guard in CI's bench smoke).
func BenchmarkBFSHybrid(b *testing.B) {
	benchBFSKernel(b, sssp.NewBFS)
}

func BenchmarkBFSClassic(b *testing.B) {
	benchBFSKernel(b, sssp.NewBFSClassic)
}

func benchBFSKernel(b *testing.B, mk func(*graph.Graph) *sssp.BFS) {
	fixtures()
	ba10000, _ := readFixtures()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"ba2000", fixBA}, {"ba10000", ba10000}, {"grid40x40", fixGrid}} {
		b.Run(tc.name, func(b *testing.B) {
			k := mk(tc.g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Run(i % tc.g.N())
			}
		})
	}
}

// readFixtures builds the estimate-ba workload's shape on first use: a
// 10,000-vertex scale-free graph (attach 3) and its 512 highest-degree
// vertices, the read targets.
var (
	readOnce sync.Once
	readBA   *graph.Graph
	readHubs []int
)

func readFixtures() (*graph.Graph, []int) {
	readOnce.Do(func() {
		readBA = graph.BarabasiAlbert(10000, 3, rng.New(41))
		byDeg := make([]int, readBA.N())
		for v := range byDeg {
			byDeg[v] = v
		}
		sort.SliceStable(byDeg, func(i, j int) bool { return readBA.Degree(byDeg[i]) > readBA.Degree(byDeg[j]) })
		readHubs = byDeg[:512]
	})
	return readBA, readHubs
}

// BenchmarkEstimateReadBA10000 is the in-process counterpart of the
// estimate-ba workload: per op one fixed 128-step read through
// engine.EstimateContext, each with its own seed, the targets cycling
// over the 512 highest-degree vertices of a 10,000-vertex scale-free
// graph. 512 targets cycle through the 128-entry snapshot LRU, so every
// read builds its target snapshot; evals/op counts the traversals a
// read pays for its memo misses.
func BenchmarkEstimateReadBA10000(b *testing.B) {
	g, hubs := readFixtures()
	eng, err := engine.New(g)
	if err != nil {
		b.Fatal(err)
	}
	evals := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := eng.EstimateContext(context.Background(), hubs[i%len(hubs)], core.Options{Steps: 128, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		evals += est.Diagnostics.Evals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}
