package engine

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"bcmh/internal/core"
	"bcmh/internal/measure"
)

// TestServerEstimateMeasures pins the measure-generic estimate route:
// each non-bc measure answers 200, echoes its name, and agrees exactly
// with the direct engine call under the same options.
func TestServerEstimateMeasures(t *testing.T) {
	e, srv := newKarateServer(t)
	cases := []struct {
		name  string
		k     int
		spec  measure.Spec
		wantK int
	}{
		{name: "coverage", spec: measure.Spec{Kind: measure.Coverage}},
		{name: "kpath", k: 3, spec: measure.Spec{Kind: measure.KPath, K: 3}, wantK: 3},
		{name: "rwbc", spec: measure.Spec{Kind: measure.RWBC}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := EstimateRequest{Vertex: 0, Steps: 256, Seed: 5, Measure: tc.name, MeasureK: tc.k}
			var resp EstimateResponse
			if code := postJSON(t, srv.URL+"/estimate", req, &resp); code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			if resp.Measure != tc.name || resp.MeasureK != tc.wantK {
				t.Fatalf("measure echo %q/%d, want %q/%d", resp.Measure, resp.MeasureK, tc.name, tc.wantK)
			}
			want, err := e.estimateOn(context.Background(), e.current(), tc.spec, 0, core.Options{Steps: 256, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Value != want.Value {
				t.Fatalf("HTTP value %v, direct %v", resp.Value, want.Value)
			}
			if resp.Value < 0 || resp.Value >= 1 {
				t.Fatalf("value %v outside [0,1)", resp.Value)
			}
		})
	}
}

// TestServerEstimateMeasureErrors pins the 400 paths of the measure
// parameters: unknown names, and a k bound on a measure that has none.
func TestServerEstimateMeasureErrors(t *testing.T) {
	_, srv := newKarateServer(t)
	var errResp map[string]string
	if code := postJSON(t, srv.URL+"/estimate", EstimateRequest{Vertex: 0, Measure: "pagerank"}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("unknown measure: status %d", code)
	}
	if errResp["error"] == "" {
		t.Fatal("error body missing")
	}
	if code := postJSON(t, srv.URL+"/estimate", EstimateRequest{Vertex: 0, Measure: "coverage", MeasureK: 4}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("k on a non-kpath measure: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/estimate/batch", BatchRequest{Targets: []int64{0}, Steps: 64, Measure: "bogus"}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("batch unknown measure: status %d", code)
	}
}

// TestServerEstimateAdaptive pins the adaptive-stopping surface: the
// response carries the adaptive diagnostics, the chain stops within the
// budget, and a non-adaptive bc reply exposes none of the new fields
// (raw-body check, complementing the golden pin).
func TestServerEstimateAdaptive(t *testing.T) {
	_, srv := newKarateServer(t)
	req := EstimateRequest{Vertex: 0, Adaptive: true, Epsilon: 0.05, Delta: 0.1, MaxSteps: 1 << 20, Seed: 3}
	var resp EstimateResponse
	if code := postJSON(t, srv.URL+"/estimate", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !resp.Adaptive || resp.StepsRun <= 0 {
		t.Fatalf("adaptive diagnostics missing: %+v", resp)
	}
	if resp.StepsRun > 1<<20 {
		t.Fatalf("steps_run %d exceeds the hard budget", resp.StepsRun)
	}
	if !resp.Converged {
		t.Fatalf("adaptive chain did not converge within 2^20 steps on karate (half-width %v)", resp.EBHalfWidth)
	}

	// A plain bc request must serialize without any measure/adaptive key.
	body, err := json.Marshal(EstimateRequest{Vertex: 0, Steps: 128, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Post(srv.URL+"/estimate", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(hresp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"measure", "measure_k", "adaptive", "steps_run", "converged", "eb_half_width"} {
		if _, present := raw[key]; present {
			t.Fatalf("plain bc reply leaked %q: %v", key, raw)
		}
	}
}

// TestServerExactMeasure pins GET /exact/{v}?measure=…: the value
// matches the engine's exact measure computation, kpath echoes its k,
// and bad parameters answer 400.
func TestServerExactMeasure(t *testing.T) {
	e, srv := newKarateServer(t)
	var resp MeasureExactResponse
	if code := getJSON(t, srv.URL+"/exact/0?measure=coverage", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want, err := e.muStatsOn(context.Background(), e.current(), measure.Spec{Kind: measure.Coverage}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value != want.BC || resp.Measure != "coverage" || resp.K != 0 {
		t.Fatalf("coverage exact %+v, want value %v", resp, want.BC)
	}

	if code := getJSON(t, srv.URL+"/exact/0?measure=kpath&k=3", &resp); code != http.StatusOK {
		t.Fatalf("kpath status %d", code)
	}
	if resp.Measure != "kpath" || resp.K != 3 {
		t.Fatalf("kpath echo %+v", resp)
	}

	// ?measure=bc keeps the legacy reply shape.
	var legacy ExactResponse
	if code := getJSON(t, srv.URL+"/exact/0?measure=bc", &legacy); code != http.StatusOK {
		t.Fatalf("bc exact status %d", code)
	}
	exact, err := e.MuStatsContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.BC != exact.BC {
		t.Fatalf("bc exact %v, want %v", legacy.BC, exact.BC)
	}

	var errResp map[string]string
	if code := getJSON(t, srv.URL+"/exact/0?measure=nope", &errResp); code != http.StatusBadRequest {
		t.Fatalf("unknown measure: status %d", code)
	}
	if code := getJSON(t, srv.URL+"/exact/0?measure=kpath&k=oops", &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad k: status %d", code)
	}
}

// TestServerBatchMeasure pins the batch route under a non-bc measure:
// every entry carries the measure and matches the single-estimate
// route under the derived per-target seed.
func TestServerBatchMeasure(t *testing.T) {
	_, srv := newKarateServer(t)
	req := BatchRequest{Targets: []int64{0, 33}, Seed: 11, Steps: 256, Measure: "coverage"}
	var resp BatchResponse
	if code := postJSON(t, srv.URL+"/estimate/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results %+v", resp.Results)
	}
	for i, r := range resp.Results {
		if r.Measure != "coverage" {
			t.Fatalf("entry %d measure %q", i, r.Measure)
		}
		var single EstimateResponse
		sreq := EstimateRequest{Vertex: r.Vertex, Steps: 256, Seed: r.Seed, Measure: "coverage"}
		if code := postJSON(t, srv.URL+"/estimate", sreq, &single); code != http.StatusOK {
			t.Fatalf("single replay status %d", code)
		}
		if single.Value != r.Value {
			t.Fatalf("entry %d: batch %v, single replay %v", i, r.Value, single.Value)
		}
	}
}
