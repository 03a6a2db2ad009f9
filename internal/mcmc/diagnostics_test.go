package mcmc

import (
	"math"
	"testing"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

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

func TestDiagnose(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, rng.New(7))
	cfg := DefaultConfig(5000)
	cfg.CollectFTrace = true
	res, err := runBC(g, 0, cfg, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diagnose(res.FTrace)
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 5001 {
		t.Fatalf("N %d", d.N)
	}
	if math.Abs(d.Mean-res.ChainAverage) > 1e-12 {
		t.Fatalf("diagnose mean %v vs %v", d.Mean, res.ChainAverage)
	}
	if d.ESS <= 0 || d.ESS > float64(d.N) {
		t.Fatalf("ESS %v out of range", d.ESS)
	}
	// MH chains with rejections have positive lag-1 autocorrelation.
	if d.Lag1Autocorr <= 0 {
		t.Fatalf("lag-1 autocorr %v, expected positive for an MH chain", d.Lag1Autocorr)
	}
	if d.MCSE <= 0 {
		t.Fatalf("MCSE %v", d.MCSE)
	}
	// A converged chain should pass Geweke most of the time; allow a
	// generous band since this is a single realisation.
	if math.Abs(d.GewekeZ) > 6 {
		t.Fatalf("Geweke z %v suspiciously large", d.GewekeZ)
	}
}

func TestDiagnoseShortTrace(t *testing.T) {
	if _, err := Diagnose(make([]float64, 5)); err == nil {
		t.Fatal("short trace accepted")
	}
}

func TestDiagnoseConstantTrace(t *testing.T) {
	trace := make([]float64, 100)
	for i := range trace {
		trace[i] = 0.5
	}
	d, err := Diagnose(trace)
	if err != nil {
		t.Fatal(err)
	}
	if d.Variance != 0 || d.GewekeZ != 0 || d.MCSE != 0 {
		t.Fatalf("constant trace diagnostics %+v", d)
	}
}
