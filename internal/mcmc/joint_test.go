package mcmc

import (
	"math"
	"testing"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

func pickSpreadTargets(g *graph.Graph, k int) []int {
	bc := brandes.BC(g)
	type pair struct {
		v  int
		bc float64
	}
	ps := make([]pair, len(bc))
	for v, b := range bc {
		ps[v] = pair{v, b}
	}
	// Selection sort by descending BC (small n; simple and deterministic).
	for i := 0; i < len(ps); i++ {
		best := i
		for j := i + 1; j < len(ps); j++ {
			if ps[j].bc > ps[best].bc {
				best = j
			}
		}
		ps[i], ps[best] = ps[best], ps[i]
	}
	out := make([]int, 0, k)
	stride := len(ps) / (2 * k) // take from the top half, spread out
	if stride == 0 {
		stride = 1
	}
	for i := 0; len(out) < k && i < len(ps); i += stride {
		out = append(out, ps[i].v)
	}
	return out
}

func TestRatio01(t *testing.T) {
	cases := []struct{ x, y, want float64 }{
		{2, 4, 0.5},
		{4, 2, 1},
		{3, 3, 1},
		{0, 5, 0},
		{5, 0, 1},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := ratio01(c.x, c.y); got != c.want {
			t.Fatalf("ratio01(%v,%v) = %v want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestBennettIdentityExact(t *testing.T) {
	// Theorem 3's backbone: WeightedLimit[i][j]/WeightedLimit[j][i]
	// must equal BC(ri)/BC(rj) exactly (the Bennett acceptance-ratio
	// identity) — checked on exact ground truth.
	g := graph.KarateClub()
	R := []int{0, 2, 33, 8}
	gt, err := ExactRelative(g, R)
	if err != nil {
		t.Fatal(err)
	}
	for i := range R {
		for j := range R {
			if i == j {
				continue
			}
			got := gt.WeightedLimit[i][j] / gt.WeightedLimit[j][i]
			if math.Abs(got-gt.Ratio[i][j]) > 1e-10 {
				t.Fatalf("Bennett identity broken at (%d,%d): %v vs %v",
					i, j, got, gt.Ratio[i][j])
			}
		}
	}
}

func TestJointRatioConverges(t *testing.T) {
	// Eq. 22's estimate of BC(ri)/BC(rj) is consistent: the sound part
	// of the paper. Moderate budget, generous tolerance.
	g := graph.KarateClub()
	R := pickSpreadTargets(g, 4)
	gt, err := ExactRelative(g, R)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateRelative(g, R, DefaultJointConfig(60000), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range R {
		for j := range R {
			if i == j || math.IsNaN(gt.Ratio[i][j]) {
				continue
			}
			got := res.RatioEst[i][j]
			if math.IsNaN(got) {
				t.Fatalf("ratio (%d,%d) NaN; MSize %v", i, j, res.MSize)
			}
			if math.Abs(got-gt.Ratio[i][j])/gt.Ratio[i][j] > 0.25 {
				t.Fatalf("ratio (%d,%d): est %v exact %v", i, j, got, gt.Ratio[i][j])
			}
		}
	}
}

func TestJointRelScoreConvergesToWeightedLimit(t *testing.T) {
	// The M(j) chain average converges to WeightedLimit, not to the
	// uniform-average Eq. 23 — the definition gap experiment F3
	// charts.
	g := graph.KarateClub()
	R := []int{0, 33}
	gt, err := ExactRelative(g, R)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateRelative(g, R, DefaultJointConfig(80000), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range R {
		for j := range R {
			if i == j {
				continue
			}
			if math.Abs(res.RelScore[i][j]-gt.WeightedLimit[i][j]) > 0.05 {
				t.Fatalf("RelScore(%d,%d) = %v, want weighted limit %v (Eq.23 uniform = %v)",
					i, j, res.RelScore[i][j], gt.WeightedLimit[i][j], gt.Eq23[i][j])
			}
		}
	}
}

func TestJointDiagonal(t *testing.T) {
	g := graph.KarateClub()
	R := []int{0, 2, 33}
	res, err := EstimateRelative(g, R, DefaultJointConfig(20000), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range R {
		// min{1, δ/δ} = 1 always: diagonal rel-scores are exactly 1,
		// diagonal ratios exactly 1.
		if math.Abs(res.RelScore[i][i]-1) > 1e-12 {
			t.Fatalf("diagonal rel score %v", res.RelScore[i][i])
		}
		if math.Abs(res.RatioEst[i][i]-1) > 1e-12 {
			t.Fatalf("diagonal ratio %v", res.RatioEst[i][i])
		}
	}
}

func TestJointMSizesSumToStates(t *testing.T) {
	g := graph.KarateClub()
	R := []int{0, 1, 2}
	cfg := DefaultJointConfig(5000)
	res, err := EstimateRelative(g, R, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range res.MSize {
		total += m
	}
	if total != cfg.Steps+1 {
		t.Fatalf("M sizes sum %d want %d", total, cfg.Steps+1)
	}
	// Higher-BC targets hold the chain longer: M-size ordering should
	// track BC ordering for well-separated targets.
	bc := brandes.BC(g)
	if bc[0] > bc[1] && bc[1] > bc[2] {
		if !(res.MSize[0] > res.MSize[2]) {
			t.Fatalf("M sizes %v don't reflect BC ordering", res.MSize)
		}
	}
}

func TestJointStationaryMarginal(t *testing.T) {
	// P[r,v] ∝ δ_v(r): the marginal over r should be ∝ Σ_v δ_v(r) =
	// BC(r)·n(n-1). Compare empirical M sizes against exact BC shares.
	g := graph.KarateClub()
	R := []int{0, 2, 33}
	gt, _ := ExactRelative(g, R)
	res, err := EstimateRelative(g, R, DefaultJointConfig(120000), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	var bcSum float64
	for _, b := range gt.BC {
		bcSum += b
	}
	total := 0
	for _, m := range res.MSize {
		total += m
	}
	for i := range R {
		want := gt.BC[i] / bcSum
		got := float64(res.MSize[i]) / float64(total)
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("marginal share of r%d: %v want %v", i, got, want)
		}
	}
}

func TestJointDeterminism(t *testing.T) {
	g := graph.KarateClub()
	R := []int{0, 33}
	a, err := EstimateRelative(g, R, DefaultJointConfig(2000), rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := EstimateRelative(g, R, DefaultJointConfig(2000), rng.New(17))
	if a.RelScore[0][1] != b.RelScore[0][1] || a.AcceptanceRate != b.AcceptanceRate {
		t.Fatal("joint sampler not deterministic")
	}
}

func TestJointValidation(t *testing.T) {
	g := graph.KarateClub()
	if _, err := EstimateRelative(g, []int{3}, DefaultJointConfig(10), rng.New(1)); err == nil {
		t.Fatal("singleton R accepted")
	}
	if _, err := EstimateRelative(g, []int{3, 4}, DefaultJointConfig(0), rng.New(1)); err == nil {
		t.Fatal("zero steps accepted")
	}
	if _, err := EstimateRelative(g, []int{3, 99}, DefaultJointConfig(10), rng.New(1)); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := EstimateRelative(g, []int{3, 3}, DefaultJointConfig(10), rng.New(1)); err == nil {
		t.Fatal("duplicate target accepted")
	}
	cfg := DefaultJointConfig(10)
	cfg.BurnIn = 11
	if _, err := EstimateRelative(g, []int{3, 4}, cfg, rng.New(1)); err == nil {
		t.Fatal("excess burn-in accepted")
	}
	cfg = DefaultJointConfig(10)
	cfg.InitR = 7
	if _, err := EstimateRelative(g, []int{3, 4}, cfg, rng.New(1)); err == nil {
		t.Fatal("bad InitR accepted")
	}
}

func TestJointZeroBCMembers(t *testing.T) {
	// A star leaf in R: its BC is 0, ratios against it are NaN-or-
	// saturated; the sampler must not crash and the center/leaf rel
	// score must behave: BC_leaf(center) ... M(leaf) will be tiny or
	// empty since δ(leaf)=0 everywhere.
	g := graph.Star(10)
	R := []int{0, 3} // center, leaf
	res, err := EstimateRelative(g, R, DefaultJointConfig(20000), rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	// Chain should spend essentially all its time on the center.
	if res.MSize[0] < 19000 {
		t.Fatalf("center M size %v; chain should concentrate there", res.MSize[0])
	}
	// RelScore[leaf][center] = E over M(center) of min{1, δ(leaf)/δ(center)} = 0.
	if res.RelScore[1][0] != 0 {
		t.Fatalf("leaf-vs-center rel score %v want 0", res.RelScore[1][0])
	}
}

func TestExactRelativeValidation(t *testing.T) {
	g := graph.Path(5)
	if _, err := ExactRelative(g, []int{1}); err == nil {
		t.Fatal("singleton accepted")
	}
	if _, err := ExactRelative(g, []int{1, 9}); err == nil {
		t.Fatal("out of range accepted")
	}
}

func TestExactRelativeEq23Properties(t *testing.T) {
	g := graph.KarateClub()
	R := []int{0, 2, 33}
	gt, err := ExactRelative(g, R)
	if err != nil {
		t.Fatal(err)
	}
	for i := range R {
		if gt.Eq23[i][i] != 1 {
			t.Fatalf("Eq23 diagonal %v", gt.Eq23[i][i])
		}
		for j := range R {
			if gt.Eq23[i][j] < 0 || gt.Eq23[i][j] > 1 {
				t.Fatalf("Eq23 out of [0,1]: %v", gt.Eq23[i][j])
			}
			if gt.WeightedLimit[i][j] < 0 || gt.WeightedLimit[i][j] > 1+1e-12 {
				t.Fatalf("weighted limit out of [0,1]: %v", gt.WeightedLimit[i][j])
			}
		}
	}
}
