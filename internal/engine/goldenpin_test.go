package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// TestGoldenBCPayloads pins the HTTP payloads of default-measure (bc)
// requests to fixtures captured before the measure-generic API
// redesign. The redesign's contract is that a request not mentioning a
// measure — or naming "bc" explicitly — is served by the exact same
// code path and returns byte-identical JSON; any drift here is a
// regression, not a fixture to refresh. Regenerate (only for an
// intentional, documented payload change) with GOLDEN_UPDATE=1.
func TestGoldenBCPayloads(t *testing.T) {
	_, srv := newKarateServer(t)
	pinGolden(t, "measure_bc_golden.json", []goldenCase{
		{"estimate_fixed_steps", func() []byte {
			return postRaw(t, srv.URL+"/estimate",
				`{"vertex":0,"steps":512,"seed":7}`)
		}},
		{"estimate_planned", func() []byte {
			return postRaw(t, srv.URL+"/estimate",
				`{"vertex":33,"epsilon":0.1,"delta":0.2,"max_steps":4096,"seed":11}`)
		}},
		{"estimate_chains", func() []byte {
			return postRaw(t, srv.URL+"/estimate",
				`{"vertex":2,"steps":256,"chains":3,"seed":5}`)
		}},
		{"estimate_measure_bc_explicit", func() []byte {
			// Post-redesign alias: naming the default measure must not
			// change a single byte. (Pre-redesign servers ignore unknown
			// fields, so the fixture equals estimate_fixed_steps's body
			// with the other vertex/seed.)
			return postRaw(t, srv.URL+"/estimate",
				`{"vertex":5,"steps":384,"seed":13,"measure":"bc"}`)
		}},
		{"estimate_eq7", func() []byte {
			return postRaw(t, srv.URL+"/estimate",
				`{"vertex":0,"steps":512,"seed":7,"estimator":"eq7-literal"}`)
		}},
		{"estimate_proposal_side", func() []byte {
			return postRaw(t, srv.URL+"/estimate",
				`{"vertex":0,"steps":512,"seed":7,"estimator":"proposal-side"}`)
		}},
		{"batch_results", func() []byte {
			return batchResults(t, postRaw(t, srv.URL+"/estimate/batch",
				`{"targets":[0,33,2,0,13],"steps":256,"seed":99,"concurrency":2}`))
		}},
		{"exact_0", func() []byte { return getRaw(t, srv.URL+"/exact/0") }},
		{"exact_33", func() []byte { return getRaw(t, srv.URL+"/exact/33") }},
	})
}

// TestGoldenMeasurePayloads pins the paths TestGoldenBCPayloads does
// not reach: measure chains (coverage, kpath, rwbc), multi-chain
// measure pooling, the adaptive stopping rule for bc and for a pooled
// measure, and a measure batch. The fixtures were captured before the
// chain entry points were merged into one runner (mcmc.Run); drift is
// a regression.
func TestGoldenMeasurePayloads(t *testing.T) {
	_, srv := newKarateServer(t)
	est := func(body string) func() []byte {
		return func() []byte { return postRaw(t, srv.URL+"/estimate", body) }
	}
	pinGolden(t, "measure_golden.json", []goldenCase{
		{"coverage_fixed_steps", est(`{"vertex":0,"measure":"coverage","steps":512,"seed":7}`)},
		{"kpath_planned", est(`{"vertex":33,"measure":"kpath","measure_k":3,"epsilon":0.1,"delta":0.2,"max_steps":4096,"seed":11}`)},
		{"rwbc_chains", est(`{"vertex":2,"measure":"rwbc","steps":256,"chains":3,"seed":5}`)},
		{"adaptive_bc", est(`{"vertex":0,"adaptive":true,"epsilon":0.05,"delta":0.1,"seed":7}`)},
		{"adaptive_coverage_chains", est(`{"vertex":33,"measure":"coverage","adaptive":true,"epsilon":0.05,"chains":2,"seed":3}`)},
		{"batch_coverage", func() []byte {
			return batchResults(t, postRaw(t, srv.URL+"/estimate/batch",
				`{"targets":[0,33,2,0],"measure":"coverage","steps":256,"seed":99,"concurrency":2}`))
		}},
	})
}

// TestGoldenWeightedBCPayloads pins bc on a weighted karate club, the
// Dijkstra identity route: one chain, three pooled chains, and a
// planned request (μ derived on the weighted graph). Captured before
// the chain entry points were merged into mcmc.Run.
func TestGoldenWeightedBCPayloads(t *testing.T) {
	e, err := New(graph.WithUniformWeights(graph.KarateClub(), 1, 9, rng.New(143)))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServerWithLabels(e, nil))
	t.Cleanup(srv.Close)
	est := func(body string) func() []byte {
		return func() []byte { return postRaw(t, srv.URL+"/estimate", body) }
	}
	pinGolden(t, "weighted_bc_golden.json", []goldenCase{
		{"fixed_steps", est(`{"vertex":0,"steps":512,"seed":7}`)},
		{"chains", est(`{"vertex":2,"steps":256,"chains":3,"seed":5}`)},
		{"planned", est(`{"vertex":33,"epsilon":0.1,"delta":0.2,"max_steps":4096,"seed":11}`)},
	})
}

type goldenCase struct {
	name string
	do   func() []byte
}

// pinGolden compares each case's payload with the fixture
// testdata/<file>, a JSON object from case name to payload. With
// GOLDEN_UPDATE=1 it rewrites the fixture instead.
func pinGolden(t *testing.T, file string, cases []goldenCase) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		got := make(map[string]string, len(cases))
		for _, c := range cases {
			got[c.name] = string(c.do())
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for i, k := range keys {
			kb, _ := json.Marshal(k)
			vb, _ := json.Marshal(got[k])
			buf.Write(kb)
			buf.WriteString(": ")
			buf.Write(vb)
			if i < len(keys)-1 {
				buf.WriteString(",")
			}
			buf.WriteString("\n")
		}
		buf.WriteString("}\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden payloads to %s", len(got), path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing golden fixture: %v", err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, ok := want[c.name]
			if !ok {
				t.Fatalf("fixture missing case %q (regenerate with GOLDEN_UPDATE=1)", c.name)
			}
			if got := string(c.do()); got != w {
				t.Errorf("payload drifted from golden\n got: %s\nwant: %s", got, w)
			}
		})
	}
}

// batchResults re-marshals a batch reply's Results array alone: the
// reply also carries a wall-clock elapsed_ms.
func batchResults(t *testing.T, raw []byte) []byte {
	t.Helper()
	var resp BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decoding batch reply: %v", err)
	}
	out, err := json.Marshal(resp.Results)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func postRaw(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d body %s", url, resp.StatusCode, raw)
	}
	return raw
}

func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d body %s", url, resp.StatusCode, raw)
	}
	return raw
}
