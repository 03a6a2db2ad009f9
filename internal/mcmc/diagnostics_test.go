package mcmc

import (
	"fmt"
	"math"
	"testing"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/stats"
)

// Chain-output diagnostics. The paper's bounds prescribe T a priori
// from μ(r), but a practitioner rarely knows μ(r); these diagnostics
// assess convergence from the chain's own f-trace (collected with
// Config.CollectFTrace), the standard MCMC practice the paper's
// framework plugs into. No program uses them; they live beside their
// tests.

// Diagnostics summarises a chain's f-trace.
type Diagnostics struct {
	// N is the trace length.
	N int
	// Mean and Variance of the trace.
	Mean, Variance float64
	// ESS is the batch-means effective sample size: how many iid
	// samples the correlated trace is worth.
	ESS float64
	// Lag1Autocorr is the lag-1 autocorrelation (near 0 for
	// fast-mixing chains, near 1 for sticky ones).
	Lag1Autocorr float64
	// GewekeZ is the Geweke convergence z-score comparing the first
	// 10% of the trace against the last 50%; |z| > 2 suggests the
	// chain had not yet forgotten its initial state.
	GewekeZ float64
	// MCSE is the Monte-Carlo standard error of the trace mean,
	// Variance-over-ESS based.
	MCSE float64
}

// Diagnose computes Diagnostics from an f-trace. It returns an error
// for traces too short to diagnose (< 20 points).
func Diagnose(trace []float64) (Diagnostics, error) {
	n := len(trace)
	if n < 20 {
		return Diagnostics{}, fmt.Errorf("mcmc: trace too short to diagnose (%d < 20)", n)
	}
	var d Diagnostics
	d.N = n
	d.Mean = stats.Mean(trace)
	d.Variance = stats.Variance(trace)
	d.ESS = stats.ESSBatchMeans(trace)
	d.Lag1Autocorr = stats.Autocorrelation(trace, 1)
	d.GewekeZ = gewekeZ(trace)
	if d.ESS > 0 {
		d.MCSE = math.Sqrt(d.Variance / d.ESS)
	}
	return d, nil
}

// gewekeZ compares the means of the early (first 10%) and late (last
// 50%) trace segments, standardised by their batch-means variances.
func gewekeZ(trace []float64) float64 {
	n := len(trace)
	a := trace[:n/10]
	b := trace[n/2:]
	if len(a) < 2 || len(b) < 2 {
		return 0
	}
	varA := stats.Variance(a) / stats.ESSBatchMeans(a)
	varB := stats.Variance(b) / stats.ESSBatchMeans(b)
	denom := math.Sqrt(varA + varB)
	if denom == 0 {
		return 0
	}
	return (stats.Mean(a) - stats.Mean(b)) / denom
}

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
