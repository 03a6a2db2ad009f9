package mcmc

import (
	"math"
	"testing"

	"bcmh/internal/graph"
)

// The f-trace (Config.CollectFTrace) is what the rank package's
// batch-means intervals read.

func TestFTraceCollection(t *testing.T) {
	g := graph.KarateClub()
	cfg := DefaultConfig(500)
	cfg.CollectFTrace = true
	res, err := runBC(g, 0, cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FTrace) != 501 { // T+1 counted states, no burn-in
		t.Fatalf("trace length %d", len(res.FTrace))
	}
	// Trace mean must equal the chain average exactly.
	var sum float64
	for _, f := range res.FTrace {
		sum += f
	}
	if math.Abs(sum/501-res.ChainAverage) > 1e-12 {
		t.Fatalf("trace mean %v != chain average %v", sum/501, res.ChainAverage)
	}
	// Burn-in shortens the counted trace.
	cfg.BurnIn = 100
	res, _ = runBC(g, 0, cfg, 3, nil)
	if len(res.FTrace) != 401 {
		t.Fatalf("burn-in trace length %d", len(res.FTrace))
	}
}

func TestFTraceOffByDefault(t *testing.T) {
	g := graph.KarateClub()
	res, err := runBC(g, 0, DefaultConfig(100), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FTrace != nil {
		t.Fatal("f-trace collected without being requested")
	}
}
